package pki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
	"time"

	"trustvo/internal/xtnl"
)

// The certificate writer is checked against x509.CreateCertificate:
// given the same serial, times, names, subject key and extensions, the
// writer's DER must equal the stdlib's byte for byte (Ed25519 signing is
// deterministic), or both must fail.

// oracleMembership builds a membership token the way IssueMembership did
// before the writer: a template through x509.CreateCertificate.
func oracleMembership(a *VOAuthority, serial int64, member, role string,
	notBefore, notAfter time.Time, key ed25519.PublicKey) ([]byte, error) {
	exts, err := oracleExtensions([]oracleExt{
		{oidVOName, a.VO},
		{oidVORole, role},
		{oidAttrCredType, ParticipationTicketType},
		{oidAttrCredID, fmt.Sprintf("%s-ticket-%d", a.VO, serial)},
		{oidAttrContent, []asn1Attr{{"vo", a.VO}, {"role", role}, {"member", member}}},
	})
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:    big.NewInt(serial),
		Subject:         pkix.Name{CommonName: member, Organization: []string{a.VO}},
		NotBefore:       notBefore,
		NotAfter:        notAfter,
		KeyUsage:        x509.KeyUsageDigitalSignature,
		ExtraExtensions: exts,
	}
	return x509.CreateCertificate(rand.Reader, tmpl, a.caCert, key, a.Keys.Private)
}

// oracleAttribute is the stdlib counterpart of mintAttribute.
func oracleAttribute(a *Authority, serial int64, cred *xtnl.Credential,
	notBefore, notAfter time.Time, key ed25519.PublicKey) ([]byte, error) {
	attrs := make([]asn1Attr, len(cred.Attributes))
	for i, at := range cred.Attributes {
		attrs[i] = asn1Attr{Name: at.Name, Value: at.Value}
	}
	exts, err := oracleExtensions([]oracleExt{
		{oidAttrCredType, cred.Type},
		{oidAttrCredID, cred.ID},
		{oidAttrSens, cred.Sensitivity.String()},
		{oidAttrContent, attrs},
	})
	if err != nil {
		return nil, err
	}
	if len(cred.HolderKey) == ed25519.PublicKeySize {
		exts = append(exts, pkix.Extension{Id: oidAttrHolderKey, Value: cred.HolderKey})
	}
	tmpl := &x509.Certificate{
		SerialNumber:    big.NewInt(serial),
		Subject:         pkix.Name{CommonName: cred.Holder},
		NotBefore:       notBefore,
		NotAfter:        notAfter,
		KeyUsage:        x509.KeyUsageDigitalSignature,
		ExtraExtensions: exts,
	}
	return x509.CreateCertificate(rand.Reader, tmpl, a.x509.caCert, key, a.Keys.Private)
}

type oracleExt struct {
	id    asn1.ObjectIdentifier
	value any
}

func oracleExtensions(in []oracleExt) ([]pkix.Extension, error) {
	out := make([]pkix.Extension, len(in))
	for i, e := range in {
		v, err := asn1.Marshal(e.value)
		if err != nil {
			return nil, err
		}
		out[i] = pkix.Extension{Id: e.id, Value: v}
	}
	return out, nil
}

// mintCase is one differential input, used for both token kinds: the
// membership token takes vo/member/role, the attribute certificate
// takes vo as the authority name and member/role as holder/type.
type mintCase struct {
	name          string
	vo            string
	member, role  string
	serial        int64
	notBefore     time.Time
	lifetime      time.Duration
	holderKey     bool
	attrs         []xtnl.Attribute
	wantMintError bool
}

func mintCases() []mintCase {
	t0 := time.Date(2026, 10, 17, 7, 31, 29, 123456789, time.UTC)
	long := func(n int) string { return strings.Repeat("m", n) }
	base := mintCase{vo: "AircraftOptimizationVO", member: "AerospaceCo", role: "DesignWebPortal",
		serial: 2, notBefore: t0, lifetime: time.Hour,
		attrs: []xtnl.Attribute{{Name: "QualityRegulation", Value: "UNI EN ISO 9000"}}}
	with := func(name string, f func(*mintCase)) mintCase {
		c := base
		c.name = name
		f(&c)
		return c
	}
	cases := []mintCase{
		with("printable", func(c *mintCase) {}),
		with("holder key", func(c *mintCase) { c.holderKey = true }),
		with("asterisk", func(c *mintCase) { c.member = "*.aero"; c.role = "role*" }),
		with("ampersand", func(c *mintCase) { c.member = "R&D Co"; c.vo = "R&D VO" }),
		with("non-ASCII", func(c *mintCase) { c.member = "Zürich Aéro"; c.role = "航空" }),
		with("non-ASCII VO", func(c *mintCase) { c.vo = "VO-Zürich" }),
		with("NUL", func(c *mintCase) { c.member = "nul\x00byte" }),
		with("invalid UTF-8 member", func(c *mintCase) { c.member = "bad\xff"; c.wantMintError = true }),
		with("invalid UTF-8 role", func(c *mintCase) { c.role = "\xc3("; c.wantMintError = true }),
		with("invalid UTF-8 attribute", func(c *mintCase) {
			c.attrs = []xtnl.Attribute{{Name: "a", Value: "\xff"}}
		}),
		with("name 128 bytes", func(c *mintCase) { c.member = long(128) }),
		with("name 256 bytes", func(c *mintCase) { c.member = long(256); c.role = long(300) }),
		with("name 70000 bytes", func(c *mintCase) { c.member = long(70000) }),
		with("many attributes", func(c *mintCase) {
			c.attrs = nil
			for i := 0; i < 40; i++ {
				c.attrs = append(c.attrs, xtnl.Attribute{Name: fmt.Sprintf("attr%d", i), Value: long(i)})
			}
		}),
		with("no attributes", func(c *mintCase) { c.attrs = nil }),
		with("empty VO", func(c *mintCase) { c.vo = "" }),
		with("subject equals issuer", func(c *mintCase) { c.member = "VO CA " + c.vo }),
		with("holder is the issuer", func(c *mintCase) { c.member = c.vo }),
		with("lifetime past 2049", func(c *mintCase) { c.lifetime = 30 * 365 * 24 * time.Hour }),
		with("lifetime past 2100", func(c *mintCase) { c.lifetime = 100 * 365 * 24 * time.Hour }),
		with("not before 1949", func(c *mintCase) {
			c.notBefore = time.Date(1949, 12, 31, 23, 59, 59, 0, time.UTC)
			c.lifetime = 24 * time.Hour
		}),
		with("validity across 2050", func(c *mintCase) {
			c.notBefore = time.Date(2049, 12, 31, 23, 30, 0, 0, time.UTC)
		}),
		with("not before 1950", func(c *mintCase) { c.notBefore = time.Date(1950, 1, 1, 0, 0, 0, 0, time.UTC) }),
		with("not before year 0", func(c *mintCase) { c.notBefore = time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC) }),
		with("not after year 10000", func(c *mintCase) {
			c.notBefore = time.Date(9999, 12, 31, 23, 0, 0, 0, time.UTC)
			c.wantMintError = true
		}),
		with("local zone", func(c *mintCase) { c.notBefore = t0.In(time.FixedZone("X", -7*3600-1800)) }),
	}
	for _, serial := range []int64{0, 1, 127, 128, 255, 256, 32767, 32768, 1<<23 - 1, 1 << 23,
		1<<31 - 1, 1 << 31, 1<<55 - 1, 1 << 55, math.MaxInt64, -1} {
		serial := serial
		cases = append(cases, with(fmt.Sprintf("serial %d", serial), func(c *mintCase) {
			c.serial = serial
			c.wantMintError = serial < 0
		}))
	}
	return cases
}

// checkMembership compares the writer with the oracle for one input.
func checkMembership(t *testing.T, voa *VOAuthority, c mintCase, key ed25519.PublicKey) (writerErr error) {
	t.Helper()
	notAfter := c.notBefore.Add(c.lifetime)
	got, err := voa.mintMembership(c.serial, c.member, c.role, c.notBefore, notAfter, key)
	want, werr := oracleMembership(voa, c.serial, c.member, c.role, c.notBefore, notAfter, key)
	compareMint(t, got, err, want, werr)
	return err
}

func checkAttribute(t *testing.T, a *Authority, c mintCase, key ed25519.PublicKey) {
	t.Helper()
	iss, err := a.x509Issuer()
	if err != nil {
		t.Fatal(err)
	}
	cred := &xtnl.Credential{Type: c.role, ID: c.vo + "-" + c.role, Holder: c.member, Issuer: a.Name,
		Attributes: c.attrs, Sensitivity: xtnl.SensitivityLow}
	if c.holderKey {
		cred.HolderKey = key
	}
	notAfter := c.notBefore.Add(c.lifetime)
	got, err := mintAttribute(iss, a.Keys.Private, c.serial, cred, c.notBefore, notAfter, key)
	want, werr := oracleAttribute(a, c.serial, cred, c.notBefore, notAfter, key)
	compareMint(t, got, err, want, werr)
}

func compareMint(t *testing.T, got []byte, err error, want []byte, werr error) {
	t.Helper()
	switch {
	case err != nil && werr != nil:
	case err != nil || werr != nil:
		t.Fatalf("writer error %v, CreateCertificate error %v", err, werr)
	case !bytes.Equal(got, want):
		t.Fatalf("DER differs from CreateCertificate:\n got %x\nwant %x", got, want)
	}
}

func TestMintMatchesCreateCertificate(t *testing.T) {
	key := MustGenerateKeyPair().Public
	vos := map[string]*VOAuthority{}
	cas := map[string]*Authority{}
	for _, c := range mintCases() {
		t.Run(c.name, func(t *testing.T) {
			voa := vos[c.vo]
			if voa == nil {
				var err error
				if voa, err = NewVOAuthority(c.vo); err != nil {
					t.Fatal(err)
				}
				vos[c.vo] = voa
				cas[c.vo] = MustNewAuthority(c.vo)
			}
			t.Run("membership", func(t *testing.T) {
				if err := checkMembership(t, voa, c, key); (err != nil) != c.wantMintError {
					t.Fatalf("error = %v, want error %v", err, c.wantMintError)
				}
			})
			t.Run("attribute", func(t *testing.T) {
				checkAttribute(t, cas[c.vo], c, key)
			})
		})
	}
}

// TestIssuedTokensMatchCreateCertificate drives the public mint paths,
// with their own serials, clocks and fresh keys, and rebuilds each
// certificate through the oracle from the fields it carries.
func TestIssuedTokensMatchCreateCertificate(t *testing.T) {
	voa, err := NewVOAuthority("AircraftOptimizationVO")
	if err != nil {
		t.Fatal(err)
	}
	ca := MustNewAuthority("CertCA")
	holder := MustGenerateKeyPair()
	for i := 0; i < 3; i++ {
		tok, err := voa.IssueMembership("AerospaceCo", "DesignWebPortal", 0)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := x509.ParseCertificate(tok.DER)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleMembership(voa, cert.SerialNumber.Int64(), "AerospaceCo", "DesignWebPortal",
			cert.NotBefore, cert.NotAfter, cert.PublicKey.(ed25519.PublicKey))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tok.DER, want) {
			t.Fatalf("membership %d differs from CreateCertificate", i)
		}

		req := IssueRequest{Type: "ISO 9000 Certified", Holder: "AerospaceCo",
			Attributes: []xtnl.Attribute{{Name: "QualityRegulation", Value: "UNI EN ISO 9000"}}}
		if i == 1 {
			req.HolderKey = holder.Public
		}
		cred, der, err := ca.IssueX509Attribute(req)
		if err != nil {
			t.Fatal(err)
		}
		cert, err = x509.ParseCertificate(der)
		if err != nil {
			t.Fatal(err)
		}
		want, err = oracleAttribute(ca, cert.SerialNumber.Int64(), cred, cert.NotBefore, cert.NotAfter,
			cert.PublicKey.(ed25519.PublicKey))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(der, want) {
			t.Fatalf("attribute certificate %d differs from CreateCertificate", i)
		}
	}
}

// TestMintRejectsSwappedKeys keeps CreateCertificate's check that the
// signing key belongs to the issuer certificate, with its error text.
func TestMintRejectsSwappedKeys(t *testing.T) {
	voa, err := NewVOAuthority("VO")
	if err != nil {
		t.Fatal(err)
	}
	ca := MustNewAuthority("CertCA")
	cred := ca.MustIssue(IssueRequest{Type: "T", Holder: "h"})
	if _, err := ca.EncodeX509Attribute(cred); err != nil {
		t.Fatal(err)
	}
	voa.Keys = MustGenerateKeyPair()
	ca.Keys = MustGenerateKeyPair()

	key := MustGenerateKeyPair().Public
	now := time.Now()
	_, stdErr := oracleMembership(voa, 9, "m", "r", now, now.Add(time.Hour), key)
	if stdErr == nil {
		t.Fatal("CreateCertificate accepted a swapped key")
	}
	_, err = voa.IssueMembership("m", "r", time.Hour)
	if err == nil || !strings.HasSuffix(err.Error(), stdErr.Error()) {
		t.Fatalf("IssueMembership error = %v, want the stdlib %q", err, stdErr)
	}
	_, err = ca.EncodeX509Attribute(cred)
	if err == nil || !strings.HasSuffix(err.Error(), stdErr.Error()) {
		t.Fatalf("EncodeX509Attribute error = %v, want the stdlib %q", err, stdErr)
	}
}

func FuzzMintMatchesCreateCertificate(f *testing.F) {
	for _, c := range mintCases() {
		if len(c.member) > 1024 {
			continue
		}
		var attrName, attrValue string
		if len(c.attrs) > 0 {
			attrName, attrValue = c.attrs[0].Name, c.attrs[0].Value
		}
		f.Add(c.vo, c.member, c.role, c.serial, c.notBefore.Unix(), int64(c.notBefore.Nanosecond()),
			int64(c.lifetime), c.holderKey, attrName, attrValue)
	}
	key := MustGenerateKeyPair().Public
	f.Fuzz(func(t *testing.T, vo, member, role string, serial, notBefore, nanos, lifetime int64,
		holderKey bool, attrName, attrValue string) {
		c := mintCase{vo: vo, member: member, role: role, serial: serial,
			notBefore: time.Unix(notBefore, nanos), lifetime: time.Duration(lifetime), holderKey: holderKey,
			attrs: []xtnl.Attribute{{Name: attrName, Value: attrValue}}}
		// The authorities' own CA certificates need an encodable name;
		// CreateCertificate refuses the rest before any token is minted.
		voa, err := NewVOAuthority(vo)
		if err != nil {
			return
		}
		checkMembership(t, voa, c, key)
		ca := MustNewAuthority(vo)
		if _, err := ca.x509Issuer(); err != nil {
			return
		}
		checkAttribute(t, ca, c, key)
	})
}
