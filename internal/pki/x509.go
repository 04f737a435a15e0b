package pki

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"encoding/pem"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"trustvo/internal/xtnl"
)

// This file is the X.509 bridge of §6.3: the VO Management toolkit
// identifies members with X.509 certificates, so the integration mints a
// VO membership credential as a real X.509 certificate at role-assignment
// time ("we modified the TN service code to allow the VO Initiator to
// create at runtime the VO membership credential: this is an X509
// credential that is released to the VO member when it is assigned a VO
// role").
//
// The §6.3 caveat is modelled too: X.509 cannot partially hide its
// content, so profiles restricted to X.509 credentials support only the
// standard and trusting negotiation strategies — internal/negotiation
// enforces that by consulting SupportsSelectiveDisclosure.

// Membership attribute OIDs (private-arc test OIDs).
var (
	oidVOName = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 1, 1}
	oidVORole = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 1, 2}

	derOIDVORole = mustDER(oidVORole)
	// derExtTicketType is the credential-type extension every membership
	// token carries.
	derExtTicketType = mustDER(pkix.Extension{Id: oidAttrCredType, Value: mustDER(ParticipationTicketType)})
)

// ParticipationTicketType is the credential type a membership token
// presents when used as a ticket in later trust negotiations.
const ParticipationTicketType = "VOParticipation"

// MembershipToken is a decoded VO membership certificate: the X.509
// credential a member presents during the VO operational phase. It also
// carries the VO public key ("The membership token contains the public
// key of the VO to be used for authentication in the VO", §5.1).
type MembershipToken struct {
	VO     string
	Role   string
	Member string
	// VOKey is the VO authority's Ed25519 public key, from the issuer
	// certificate.
	VOKey []byte
	// NotBefore/NotAfter delimit validity.
	NotBefore, NotAfter time.Time
	// DER is the raw certificate.
	DER []byte
}

// PEM encodes the token's certificate in PEM form.
func (m *MembershipToken) PEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: m.DER})
}

// VOAuthority mints and verifies X.509 membership tokens for one VO.
// It is created by the VO Initiator during the identification phase.
type VOAuthority struct {
	// VO is the VO name. It is encoded into the CA certificate and the
	// token writer at creation and must not change afterwards.
	VO string
	// Keys must stay the CA certificate's key pair: a mint with any
	// other key fails.
	Keys *KeyPair

	mu     sync.Mutex
	serial int64
	caCert *x509.Certificate
	caDER  []byte

	// Encoded once from the CA certificate, for every token it signs.
	iss          *certIssuer
	orgRDN       []byte // the subject's O RDN: the VO name
	extVOName    []byte // the whole VO name extension
	ticketPrefix string // the ticket ID before its serial
}

// nextSerial allocates the next certificate serial number.
func (a *VOAuthority) nextSerial() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.serial++
	return a.serial
}

// NewVOAuthority creates the VO's certificate authority with a
// self-signed CA certificate.
func NewVOAuthority(voName string) (*VOAuthority, error) {
	kp, err := GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	a := &VOAuthority{VO: voName, Keys: kp, serial: 1}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "VO CA " + voName, Organization: []string{voName}},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, kp.Public, kp.Private)
	if err != nil {
		return nil, fmt.Errorf("pki: create VO CA: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parse VO CA: %w", err)
	}
	a.caCert = cert
	a.caDER = der
	if a.iss, err = newCertIssuer(cert); err != nil {
		return nil, err
	}
	voDER, err := asn1.Marshal(voName)
	if err != nil {
		return nil, fmt.Errorf("pki: encode VO name: %w", err)
	}
	if a.extVOName, err = asn1.Marshal(pkix.Extension{Id: oidVOName, Value: voDER}); err != nil {
		return nil, fmt.Errorf("pki: encode VO name: %w", err)
	}
	oidOrg := asn1.ObjectIdentifier{2, 5, 4, 10}
	if a.orgRDN, err = asn1.Marshal(pkix.RelativeDistinguishedNameSET{{Type: oidOrg, Value: voName}}); err != nil {
		return nil, fmt.Errorf("pki: encode VO name: %w", err)
	}
	a.ticketPrefix = voName + "-ticket-"
	return a, nil
}

// CACertPEM returns the CA certificate for distribution to members.
func (a *VOAuthority) CACertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: a.caDER})
}

// TrustAnchor returns the issuer name and key under which this VO's
// membership tokens verify as participation tickets: other VOs add it
// to their trust stores to accept "tickets attesting … participation"
// in this VO (§5.1).
func (a *VOAuthority) TrustAnchor() (name string, key []byte) {
	return a.caCert.Subject.CommonName, append([]byte(nil), a.Keys.Public...)
}

// IssueMembership mints an X.509 membership token binding member to role
// within the VO, valid for lifetime (default one year when zero).
func (a *VOAuthority) IssueMembership(member, role string, lifetime time.Duration) (*MembershipToken, error) {
	if member == "" || role == "" {
		return nil, errors.New("pki: membership needs member and role")
	}
	if lifetime == 0 {
		lifetime = 365 * 24 * time.Hour
	}
	serial := a.nextSerial()

	// The member's certificate key: a fresh key pair would normally be
	// provided by the member via CSR; for membership tokens the subject
	// key is the VO key itself since the token is a capability, not a
	// TLS identity. We mint a distinct subject key to keep X.509
	// semantics honest.
	subjKeys, err := GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	now := time.Now().Add(-time.Minute)
	der, err := a.mintMembership(serial, member, role, now, now.Add(lifetime), subjKeys.Public)
	if err != nil {
		return nil, fmt.Errorf("pki: issue membership: %w", err)
	}
	return &MembershipToken{
		VO: a.VO, Role: role, Member: member,
		VOKey:     append([]byte(nil), a.Keys.Public...),
		NotBefore: now, NotAfter: now.Add(lifetime),
		DER: der,
	}, nil
}

// mintMembership writes the membership certificate for member in role,
// signed by the VO key. Subject O=VO, CN=member; after the KeyUsage and
// AuthorityKeyIdentifier extensions come the VO name and role, then the
// attribute-credential extensions that let the token double as a
// participation ticket in later trust negotiations (§5.1: policies "can
// require … tickets attesting their participation to other VOs").
func (a *VOAuthority) mintMembership(serial int64, member, role string,
	notBefore, notAfter time.Time, subjectKey ed25519.PublicKey) ([]byte, error) {
	hint := len(a.extVOName) + 3*len(a.VO) + 2*len(member) + 2*len(role) + 160
	w := a.iss.begin(a.Keys.Private, hint, serial, notBefore, notAfter, a.orgRDN, member, subjectKey)
	w.raw(a.extVOName)
	w.extString(derOIDVORole, role)
	w.raw(derExtTicketType)
	w.extStringSerial(derOIDAttrCredID, a.ticketPrefix, serial)
	w.extAttrs(derOIDAttrContent, []xtnl.Attribute{
		{Name: "vo", Value: a.VO},
		{Name: "role", Value: role},
		{Name: "member", Value: member},
	})
	return w.finish()
}

// VerifyMembership parses and verifies a membership certificate against
// this VO authority, returning the decoded token.
func (a *VOAuthority) VerifyMembership(der []byte) (*MembershipToken, error) {
	return VerifyMembershipDER(der, a.caDER)
}

// VerifyMembershipDER parses tokenDER and verifies it chains to caDER.
func VerifyMembershipDER(tokenDER, caDER []byte) (*MembershipToken, error) {
	ca, err := x509.ParseCertificate(caDER)
	if err != nil {
		return nil, fmt.Errorf("pki: parse CA cert: %w", err)
	}
	cert, err := x509.ParseCertificate(tokenDER)
	if err != nil {
		return nil, fmt.Errorf("pki: parse membership cert: %w", err)
	}
	roots := x509.NewCertPool()
	roots.AddCert(ca)
	if _, err := cert.Verify(x509.VerifyOptions{
		Roots:     roots,
		KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		return nil, fmt.Errorf("pki: membership chain: %w", err)
	}
	tok := &MembershipToken{
		Member:    cert.Subject.CommonName,
		NotBefore: cert.NotBefore,
		NotAfter:  cert.NotAfter,
		DER:       tokenDER,
	}
	if len(cert.Subject.Organization) > 0 {
		tok.VO = cert.Subject.Organization[0]
	}
	for _, ext := range cert.Extensions {
		switch {
		case ext.Id.Equal(oidVOName):
			asn1.Unmarshal(ext.Value, &tok.VO)
		case ext.Id.Equal(oidVORole):
			asn1.Unmarshal(ext.Value, &tok.Role)
		}
	}
	if edKey, ok := ca.PublicKey.(ed25519.PublicKey); ok {
		tok.VOKey = append([]byte(nil), edKey...)
	}
	if tok.Role == "" {
		return nil, errors.New("pki: membership certificate lacks VO role extension")
	}
	return tok, nil
}
