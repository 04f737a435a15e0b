package pki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"errors"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"

	"trustvo/internal/xtnl"
)

// This file is the one certificate writer behind both X.509 token
// kinds: VO membership tokens (x509.go) and attribute certificates
// (x509attr.go). It appends DER straight into one buffer instead of
// going through x509.CreateCertificate, whose encoding/asn1 reflection
// dominated the cost of a mint. The output is byte-identical to
// CreateCertificate for the same serial, times, names, key and
// extensions (Ed25519 signatures are deterministic), and the tests use
// CreateCertificate as the oracle.
//
// A certIssuer holds what stays the same for every certificate one CA
// signs, encoded once; a certWriter appends what varies per token.
// Both checks CreateCertificate makes are kept: the signing key must
// match the issuer certificate's key, and the fresh signature is
// verified against the issuer key before the DER is released.

// DER tags used by the writer.
const (
	tagInteger         = 0x02
	tagBitString       = 0x03
	tagOctetString     = 0x04
	tagUTF8String      = 0x0c
	tagPrintableString = 0x13
	tagUTCTime         = 0x17
	tagGeneralizedTime = 0x18
	tagSequence        = 0x30
	tagSet             = 0x31
	tagExtensions      = 0xa3 // [3] EXPLICIT, constructed
)

var (
	// derAlgEd25519 is the Ed25519 AlgorithmIdentifier (RFC 8410), used
	// both as the signature algorithm and as the subject key algorithm.
	derAlgEd25519 = mustDER(pkix.AlgorithmIdentifier{Algorithm: asn1.ObjectIdentifier{1, 3, 101, 112}})
	// derVersion3 is the explicit [0] version field of a v3 certificate.
	derVersion3 = []byte{0xa0, 0x03, tagInteger, 0x01, 0x02}
	// derKeyUsageDigitalSignature is the critical KeyUsage extension
	// every token carries (x509.KeyUsageDigitalSignature), the first
	// extension CreateCertificate writes.
	derKeyUsageDigitalSignature = mustDER(pkix.Extension{
		Id:       asn1.ObjectIdentifier{2, 5, 29, 15},
		Critical: true,
		Value:    mustDER(asn1.BitString{Bytes: []byte{0x80}, BitLength: 1}),
	})
	oidAuthorityKeyID = asn1.ObjectIdentifier{2, 5, 29, 35}
	derOIDCommonName  = mustDER(asn1.ObjectIdentifier{2, 5, 4, 3})
)

// Errors with the text x509.CreateCertificate and encoding/asn1 give
// for the same condition.
var (
	errKeyMismatch    = errors.New("x509: provided PrivateKey doesn't match parent's PublicKey")
	errSerialNegative = errors.New("x509: serial number must be positive")
	errBadSignature   = errors.New("x509: signature returned by signer is invalid: x509: Ed25519 verification failure")
	errInvalidUTF8    = errors.New("asn1: string not valid UTF-8")
	errTimeRange      = asn1.StructuralError{Msg: "cannot represent time as GeneralizedTime"}
)

// certIssuer is the per-CA half of the writer: everything in a token
// that depends only on the issuing certificate.
type certIssuer struct {
	pub  ed25519.PublicKey // the issuer certificate's key
	name []byte            // DER issuer Name (the CA's RawSubject)
	// aki is the AuthorityKeyIdentifier extension, empty when the CA
	// has no SubjectKeyId. Like CreateCertificate, the writer leaves it
	// out of a token whose subject equals the issuer name.
	aki []byte
}

// newCertIssuer pre-encodes the issuer half of every token ca signs.
func newCertIssuer(ca *x509.Certificate) (*certIssuer, error) {
	pub, ok := ca.PublicKey.(ed25519.PublicKey)
	if !ok {
		return nil, fmt.Errorf("pki: CA key is %T, want Ed25519", ca.PublicKey)
	}
	iss := &certIssuer{pub: pub, name: ca.RawSubject}
	if len(ca.SubjectKeyId) > 0 {
		type authKeyID struct {
			ID []byte `asn1:"optional,tag:0"`
		}
		aki, err := asn1.Marshal(authKeyID{ca.SubjectKeyId})
		if err != nil {
			return nil, err
		}
		if iss.aki, err = asn1.Marshal(pkix.Extension{Id: oidAuthorityKeyID, Value: aki}); err != nil {
			return nil, err
		}
	}
	return iss, nil
}

// certWriter appends one certificate. The first error sticks: later
// writes are skipped and finish returns it.
type certWriter struct {
	iss  *certIssuer
	priv ed25519.PrivateKey
	b    []byte
	err  error
	// content offsets of the elements still open while extensions are
	// appended
	cert, tbs, exts, extSeq int
}

// begin starts a certificate signed by priv: it writes the TBS fields
// up to and including the fixed extensions, leaving the extension list
// open for the caller's own. The subject is the pre-encoded O RDN orgRDN
// (nil for none), then CN=cn unless cn is empty: the
// pkix.Name.ToRDNSequence order. sizeHint is the caller's estimate of
// the bytes its strings and extensions add.
func (iss *certIssuer) begin(priv ed25519.PrivateKey, sizeHint int, serial int64,
	notBefore, notAfter time.Time, orgRDN []byte, cn string, key ed25519.PublicKey) certWriter {
	w := certWriter{iss: iss, priv: priv}
	// CreateCertificate checks the signer against the issuer before it
	// encodes anything.
	if len(priv) != ed25519.PrivateKeySize {
		w.err = errors.New("pki: bad Ed25519 private key length")
		return w
	}
	if !bytes.Equal(priv[ed25519.SeedSize:], iss.pub) {
		w.err = errKeyMismatch
		return w
	}
	if serial < 0 {
		w.err = errSerialNegative
		return w
	}
	w.b = make([]byte, 0, 400+len(iss.name)+len(iss.aki)+len(orgRDN)+len(key)+sizeHint)
	w.cert = w.open(tagSequence)
	w.tbs = w.open(tagSequence)
	w.b = append(w.b, derVersion3...)
	w.integer(serial)
	w.b = append(w.b, derAlgEd25519...)
	w.b = append(w.b, iss.name...)

	v := w.open(tagSequence)
	w.time(notBefore)
	w.time(notAfter)
	w.close(v)

	s := w.open(tagSequence)
	w.b = append(w.b, orgRDN...)
	if cn != "" {
		w.rdn(derOIDCommonName, cn)
	}
	w.close(s)
	selfIssued := bytes.Equal(w.b[s-2:], iss.name)

	k := w.open(tagSequence)
	w.b = append(w.b, derAlgEd25519...)
	bs := w.open(tagBitString)
	w.b = append(w.b, 0) // no unused bits
	w.b = append(w.b, key...)
	w.close(bs)
	w.close(k)

	w.exts = w.open(tagExtensions)
	w.extSeq = w.open(tagSequence)
	w.b = append(w.b, derKeyUsageDigitalSignature...)
	if !selfIssued {
		w.b = append(w.b, iss.aki...)
	}
	return w
}

// raw appends pre-encoded DER, such as a whole constant extension.
func (w *certWriter) raw(der []byte) {
	if w.err == nil {
		w.b = append(w.b, der...)
	}
}

// extString appends a non-critical extension whose value is the DER
// string s.
func (w *certWriter) extString(oid []byte, s string) {
	if w.err != nil {
		return
	}
	e, o := w.openExt(oid)
	w.string(s)
	w.closeExt(e, o)
}

// extStringSerial is extString for prefix followed by the decimal
// serial, written in place.
func (w *certWriter) extStringSerial(oid []byte, prefix string, serial int64) {
	if w.err != nil {
		return
	}
	tag, err := stringTag(prefix) // digits are printable: the prefix decides
	if err != nil {
		w.err = err
		return
	}
	e, o := w.openExt(oid)
	str := w.open(tag)
	w.b = append(w.b, prefix...)
	w.b = strconv.AppendInt(w.b, serial, 10)
	w.close(str)
	w.closeExt(e, o)
}

// extBytes appends a non-critical extension whose value is v verbatim.
func (w *certWriter) extBytes(oid, v []byte) {
	if w.err != nil {
		return
	}
	e, o := w.openExt(oid)
	w.b = append(w.b, v...)
	w.closeExt(e, o)
}

// extAttrs appends a non-critical extension whose value is the content
// attributes as a SEQUENCE OF SEQUENCE { name, value } (the asn1Attr wire
// form).
func (w *certWriter) extAttrs(oid []byte, attrs []xtnl.Attribute) {
	if w.err != nil {
		return
	}
	e, o := w.openExt(oid)
	list := w.open(tagSequence)
	for _, at := range attrs {
		p := w.open(tagSequence)
		w.string(at.Name)
		w.string(at.Value)
		w.close(p)
	}
	w.close(list)
	w.closeExt(e, o)
}

// finish closes the TBS certificate, signs it, verifies the signature
// against the issuer key and returns the certificate DER.
func (w *certWriter) finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	w.close(w.extSeq)
	w.close(w.exts)
	w.close(w.tbs)
	tbs := w.b[w.tbs-2:]
	sig := ed25519.Sign(w.priv, tbs)
	if !ed25519.Verify(w.iss.pub, tbs, sig) {
		return nil, errBadSignature
	}
	w.b = append(w.b, derAlgEd25519...)
	bs := w.open(tagBitString)
	w.b = append(w.b, 0)
	w.b = append(w.b, sig...)
	w.close(bs)
	w.close(w.cert)
	return w.b, nil
}

// open appends tag and a one-byte length placeholder and returns the
// offset where the content starts; the tag sits two bytes before it.
func (w *certWriter) open(tag byte) int {
	w.b = append(w.b, tag, 0)
	return len(w.b)
}

// close sets the length of the element whose content starts at start,
// shifting the content right when the length needs the long form.
func (w *certWriter) close(start int) {
	n := len(w.b) - start
	if n < 0x80 {
		w.b[start-1] = byte(n)
		return
	}
	l := 1
	for m := n; m > 0xff; m >>= 8 {
		l++
	}
	var pad [4]byte
	w.b = append(w.b, pad[:l]...)
	copy(w.b[start+l:], w.b[start:start+n])
	w.b[start-1] = 0x80 | byte(l)
	for i := l - 1; i >= 0; i-- {
		w.b[start+i] = byte(n)
		n >>= 8
	}
}

// openExt opens Extension { extnID, extnValue OCTET STRING } up to the
// start of the value.
func (w *certWriter) openExt(oid []byte) (ext, value int) {
	ext = w.open(tagSequence)
	w.b = append(w.b, oid...)
	return ext, w.open(tagOctetString)
}

func (w *certWriter) closeExt(ext, value int) {
	w.close(value)
	w.close(ext)
}

// integer appends v as a minimal two's-complement INTEGER.
func (w *certWriter) integer(v int64) {
	var buf [9]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte(v)
		v >>= 8
		if v == 0 {
			break
		}
	}
	if buf[i]&0x80 != 0 {
		i--
		buf[i] = 0
	}
	w.b = append(w.b, tagInteger, byte(len(buf)-i))
	w.b = append(w.b, buf[i:]...)
}

// time appends t as encoding/asn1 marshals a time.Time: UTCTime for the
// years 1950–2049, GeneralizedTime otherwise, in UTC to the second.
func (w *certWriter) time(t time.Time) {
	if w.err != nil {
		return
	}
	t = t.UTC()
	year := t.Year()
	switch {
	case 1950 <= year && year < 2050:
		w.b = append(w.b, tagUTCTime, 13)
		w.b = appendDigits(w.b, year%100, 2)
	case 0 <= year && year <= 9999:
		w.b = append(w.b, tagGeneralizedTime, 15)
		w.b = appendDigits(w.b, year, 4)
	default:
		w.err = errTimeRange
		return
	}
	_, month, day := t.Date()
	hour, min, sec := t.Clock()
	w.b = appendDigits(w.b, int(month), 2)
	w.b = appendDigits(w.b, day, 2)
	w.b = appendDigits(w.b, hour, 2)
	w.b = appendDigits(w.b, min, 2)
	w.b = appendDigits(w.b, sec, 2)
	w.b = append(w.b, 'Z')
}

// appendDigits appends v as n zero-padded decimal digits.
func appendDigits(b []byte, v, n int) []byte {
	start := len(b)
	b = append(b, "0000"[:n]...)
	for i := n - 1; i >= 0; i-- {
		b[start+i] = byte('0' + v%10)
		v /= 10
	}
	return b
}

// rdn appends one single-valued RelativeDistinguishedName.
func (w *certWriter) rdn(oid []byte, value string) {
	set := w.open(tagSet)
	atv := w.open(tagSequence)
	w.b = append(w.b, oid...)
	w.string(value)
	w.close(atv)
	w.close(set)
}

// string appends s as encoding/asn1 marshals a Go string.
func (w *certWriter) string(s string) {
	if w.err != nil {
		return
	}
	tag, err := stringTag(s)
	if err != nil {
		w.err = err
		return
	}
	str := w.open(tag)
	w.b = append(w.b, s...)
	w.close(str)
}

// stringTag picks the string type encoding/asn1 gives s: PrintableString
// when every byte is in the PrintableString set ('*' and '&' excluded),
// otherwise UTF8String, and an error for invalid UTF-8.
func stringTag(s string) (byte, error) {
	for i := 0; i < len(s); i++ {
		if !printable(s[i]) {
			if !utf8.ValidString(s) {
				return 0, errInvalidUTF8
			}
			return tagUTF8String, nil
		}
	}
	return tagPrintableString, nil
}

func printable(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		'\'' <= c && c <= ')' || '+' <= c && c <= '/' ||
		c == ' ' || c == ':' || c == '=' || c == '?'
}

// mustDER marshals a value known at compile time to be encodable.
func mustDER(v any) []byte {
	b, err := asn1.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
