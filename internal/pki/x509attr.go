package pki

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"trustvo/internal/xtnl"
)

// X.509 v2-style attribute certificates (§6.3): the paper's prototype
// was "upgraded … to support both our XML proprietary format and the
// X.509 v2 format for attribute certificates". This file gives every
// credential Authority a second encoding: the same logical attribute
// credential carried as a DER X.509 certificate whose extensions hold
// the credential type, ID, holder key and content attributes.
//
// The §6.3 behavioural consequence is preserved: an X.509-encoded
// credential is monolithic — no partial hiding — so the suspicious
// strategies reject it (negotiation.ErrSelectiveRequired).

// Extension OIDs (private arc, distinct from the membership-token arc).
var (
	oidAttrCredType  = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 2, 1}
	oidAttrCredID    = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 2, 2}
	oidAttrHolderKey = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 2, 3}
	oidAttrContent   = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 2, 4}
	oidAttrSens      = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 2, 5}

	derOIDAttrCredType  = mustDER(oidAttrCredType)
	derOIDAttrCredID    = mustDER(oidAttrCredID)
	derOIDAttrHolderKey = mustDER(oidAttrHolderKey)
	derOIDAttrContent   = mustDER(oidAttrContent)
	derOIDAttrSens      = mustDER(oidAttrSens)
)

// asn1Attr is the wire form of one content attribute.
type asn1Attr struct {
	Name  string
	Value string
}

// x509State is an Authority's X.509 issuing state, created on first
// use: its self-signed CA certificate and the writer's pre-encoded
// issuer half.
type x509State struct {
	once   sync.Once
	caCert *x509.Certificate
	iss    *certIssuer
	err    error
	serial atomic.Int64
}

// x509Issuer returns the authority's certificate writer, creating its CA
// certificate on first use.
func (a *Authority) x509Issuer() (*certIssuer, error) {
	st := &a.x509
	st.once.Do(func() {
		tmpl := &x509.Certificate{
			SerialNumber:          big.NewInt(1),
			Subject:               pkix.Name{CommonName: a.Name},
			NotBefore:             time.Now().Add(-time.Hour),
			NotAfter:              time.Now().Add(20 * 365 * 24 * time.Hour),
			IsCA:                  true,
			KeyUsage:              x509.KeyUsageCertSign,
			BasicConstraintsValid: true,
		}
		der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, a.Keys.Public, a.Keys.Private)
		if err == nil {
			st.caCert, err = x509.ParseCertificate(der)
		}
		if err == nil {
			st.iss, err = newCertIssuer(st.caCert)
		}
		if err != nil {
			st.err = fmt.Errorf("pki: x509 CA for %s: %w", a.Name, err)
		}
	})
	return st.iss, st.err
}

// IssueX509Attribute mints the credential in both encodings: the X-TNL
// credential (as Issue) plus its X.509 attribute-certificate DER. The
// two carry the same credential ID, so revocation covers both.
func (a *Authority) IssueX509Attribute(req IssueRequest) (*xtnl.Credential, []byte, error) {
	cred, err := a.Issue(req)
	if err != nil {
		return nil, nil, err
	}
	der, err := a.EncodeX509Attribute(cred)
	if err != nil {
		return nil, nil, err
	}
	return cred, der, nil
}

// EncodeX509Attribute encodes one of this authority's credentials as an
// X.509 attribute certificate.
func (a *Authority) EncodeX509Attribute(cred *xtnl.Credential) ([]byte, error) {
	if cred.Issuer != a.Name {
		return nil, fmt.Errorf("pki: credential %s issued by %q, not by %q", cred.ID, cred.Issuer, a.Name)
	}
	iss, err := a.x509Issuer()
	if err != nil {
		return nil, err
	}
	serial := a.x509.serial.Add(1) + 1 // serial 1 is the CA certificate itself

	notBefore := cred.ValidFrom
	if notBefore.IsZero() {
		notBefore = time.Now().Add(-time.Minute)
	}
	notAfter := cred.ValidUntil
	if notAfter.IsZero() {
		notAfter = time.Now().Add(365 * 24 * time.Hour)
	}
	// The subject key: the holder's key when present (enabling ownership
	// proofs), otherwise a throwaway.
	subjectKey := ed25519.PublicKey(cred.HolderKey)
	if len(subjectKey) != ed25519.PublicKeySize {
		kp, err := GenerateKeyPair()
		if err != nil {
			return nil, err
		}
		subjectKey = kp.Public
	}
	der, err := mintAttribute(iss, a.Keys.Private, serial, cred, notBefore, notAfter, subjectKey)
	if err != nil {
		return nil, fmt.Errorf("pki: encode x509 attribute cert: %w", err)
	}
	return der, nil
}

// mintAttribute writes the attribute certificate for cred, signed by
// priv: subject CN=holder, and after the KeyUsage and
// AuthorityKeyIdentifier extensions the credential type, ID,
// sensitivity, content attributes and, when present, the holder key.
func mintAttribute(iss *certIssuer, priv ed25519.PrivateKey, serial int64, cred *xtnl.Credential,
	notBefore, notAfter time.Time, subjectKey ed25519.PublicKey) ([]byte, error) {
	hint := len(cred.Holder) + len(cred.Type) + len(cred.ID) + len(cred.HolderKey) + 128
	for _, at := range cred.Attributes {
		hint += len(at.Name) + len(at.Value) + 8
	}
	w := iss.begin(priv, hint, serial, notBefore, notAfter, nil, cred.Holder, subjectKey)
	w.extString(derOIDAttrCredType, cred.Type)
	w.extString(derOIDAttrCredID, cred.ID)
	w.extString(derOIDAttrSens, cred.Sensitivity.String())
	w.extAttrs(derOIDAttrContent, cred.Attributes)
	if len(cred.HolderKey) == ed25519.PublicKeySize {
		w.extBytes(derOIDAttrHolderKey, cred.HolderKey)
	}
	return w.finish()
}

// DecodeX509Attribute parses an X.509 attribute certificate into its
// logical credential view WITHOUT verifying trust (use
// TrustStore.VerifyX509Attribute for that). The returned credential has
// no XML signature — its authenticity is the certificate signature.
func DecodeX509Attribute(der []byte) (*xtnl.Credential, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parse x509 attribute cert: %w", err)
	}
	cred := &xtnl.Credential{
		Holder:     cert.Subject.CommonName,
		Issuer:     cert.Issuer.CommonName,
		ValidFrom:  cert.NotBefore.UTC().Truncate(time.Second),
		ValidUntil: cert.NotAfter.UTC().Truncate(time.Second),
	}
	for _, ext := range cert.Extensions {
		switch {
		case ext.Id.Equal(oidAttrCredType):
			asn1.Unmarshal(ext.Value, &cred.Type)
		case ext.Id.Equal(oidAttrCredID):
			asn1.Unmarshal(ext.Value, &cred.ID)
		case ext.Id.Equal(oidAttrSens):
			var s string
			asn1.Unmarshal(ext.Value, &s)
			cred.Sensitivity = xtnl.ParseSensitivity(s)
		case ext.Id.Equal(oidAttrHolderKey):
			cred.HolderKey = append([]byte(nil), ext.Value...)
		case ext.Id.Equal(oidAttrContent):
			var attrs []asn1Attr
			if _, err := asn1.Unmarshal(ext.Value, &attrs); err != nil {
				return nil, fmt.Errorf("pki: decode attributes: %w", err)
			}
			for _, at := range attrs {
				cred.Attributes = append(cred.Attributes, xtnl.Attribute{Name: at.Name, Value: at.Value})
			}
		}
	}
	if cred.Type == "" {
		return nil, errors.New("pki: x509 certificate is not an attribute credential (no credType extension)")
	}
	return cred, nil
}

// VerifyX509Attribute decodes and verifies an X.509 attribute
// certificate: the issuer (from the certificate's issuer CN) must be a
// trusted root, the Ed25519 signature over the TBS certificate must
// verify with that root's key, the validity window must include now, and
// the embedded credential ID must not be revoked.
func (ts *TrustStore) VerifyX509Attribute(der []byte, now time.Time) (*xtnl.Credential, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parse x509 attribute cert: %w", err)
	}
	cred, err := DecodeX509Attribute(der)
	if err != nil {
		return nil, err
	}
	key, ok := ts.KeyFor(cred.Issuer)
	if !ok {
		return nil, fmt.Errorf("%w: %q (x509 credential %s)", ErrUnknownIssuer, cred.Issuer, cred.ID)
	}
	if cert.SignatureAlgorithm != x509.PureEd25519 ||
		!ed25519.Verify(key, cert.RawTBSCertificate, cert.Signature) {
		return nil, fmt.Errorf("%w: x509 credential %s from %s", ErrBadSignature, cred.ID, cred.Issuer)
	}
	if now.Before(cert.NotBefore) || now.After(cert.NotAfter) {
		return nil, fmt.Errorf("%w: x509 credential %s", ErrExpired, cred.ID)
	}
	if ts.IsRevoked(cred) {
		return nil, fmt.Errorf("%w: x509 credential %s", ErrRevoked, cred.ID)
	}
	return cred, nil
}
