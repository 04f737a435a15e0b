// Package wsrpc is the service layer of the paper's architecture
// (Fig. 5): the TN web service with its three operations —
// StartNegotiation, PolicyExchange and CredentialExchange (§6.2) — and
// the VO Management toolkit services (Host/Initiator/Member editions,
// §6.1), all speaking XML envelopes over HTTP.
//
// The paper's prototype used Tomcat + Axis SOAP; this reproduction keeps
// the same operation set, message schema and round-trip structure on
// net/http (see DESIGN.md §3 for the substitution rationale).
package wsrpc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/xmldom"
)

// ContentType is the media type of all wsrpc payloads.
const ContentType = "application/xml"

// maxBody bounds request bodies (1 MiB is generous for TN messages).
const maxBody = 1 << 20

// defaultHTTP is the client used when callers do not supply one: a
// bounded timeout beats http.DefaultClient's unbounded waits.
var defaultHTTP = &http.Client{Timeout: 30 * time.Second}

// Fault is the error payload: <fault code="...">detail</fault>.
type Fault struct {
	Code   string
	Detail string
}

// Error implements error.
func (f *Fault) Error() string { return "wsrpc: fault " + f.Code + ": " + f.Detail }

// DOM serializes the fault.
func (f *Fault) DOM() *xmldom.Node {
	n := xmldom.NewElement("fault").SetAttr("code", f.Code)
	n.AppendChild(xmldom.NewText(f.Detail))
	return n
}

func faultFromDOM(n *xmldom.Node) *Fault {
	return &Fault{Code: n.AttrOr("code", "unknown"), Detail: n.Text()}
}

// writeFault emits a fault response with the HTTP status.
func writeFault(w http.ResponseWriter, status int, code, detail string) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	io.WriteString(w, (&Fault{Code: code, Detail: detail}).DOM().XML())
}

// writeDOM emits a 200 XML response.
func writeDOM(w http.ResponseWriter, n *xmldom.Node) {
	w.Header().Set("Content-Type", ContentType)
	io.WriteString(w, n.XML())
}

// readBodyDOM parses the request body as an XML document.
func readBodyDOM(r *http.Request) (*xmldom.Node, error) {
	defer r.Body.Close()
	return parseBody(r.Body, r.ContentLength)
}

// readBody reads a body of at most maxBody bytes, in one allocation
// when the sender declared its length.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	var b bytes.Buffer
	if declared > 0 && declared <= maxBody {
		b.Grow(int(declared) + bytes.MinRead)
	}
	_, err := b.ReadFrom(io.LimitReader(body, maxBody))
	return b.Bytes(), err
}

// parseBody reads and parses an XML body.
func parseBody(body io.Reader, declared int64) (*xmldom.Node, error) {
	data, err := readBody(body, declared)
	if err != nil {
		return nil, err
	}
	return xmldom.ParseBytes(data)
}

// envelope wraps a TN message with its negotiation id:
//
//	<envelope negotiation="id"><tnMessage .../></envelope>
func envelope(negID string, m *negotiation.Message) *xmldom.Node {
	return envelopeSeq(negID, 0, m)
}

// envelopeSeq additionally stamps a client sequence number, giving
// exchange requests at-most-once semantics: the service caches the reply
// per sequence number, so a retried or duplicated envelope replays the
// cached reply instead of being applied twice.
//
//	<envelope negotiation="id" seq="7"><tnMessage .../></envelope>
func envelopeSeq(negID string, seq int64, m *negotiation.Message) *xmldom.Node {
	env := xmldom.NewElement("envelope").SetAttr("negotiation", negID)
	if seq > 0 {
		env.SetAttr("seq", strconv.FormatInt(seq, 10))
	}
	env.AppendChild(m.DOM())
	return env
}

// openEnvelope decodes an envelope into (id, message).
func openEnvelope(root *xmldom.Node) (string, *negotiation.Message, error) {
	id, _, m, err := openEnvelopeSeq(root)
	return id, m, err
}

// openEnvelopeSeq decodes an envelope into (id, seq, message); seq is 0
// for envelopes from pre-sequence clients (no seq attribute at all).
//
// A present-but-malformed seq is rejected with a typed *Error (code
// "envelope") rather than silently collapsed to 0: seq 0 means "no
// at-most-once protection", so swallowing the parse error would let a
// corrupted retry bypass the reply cache and be applied twice.
func openEnvelopeSeq(root *xmldom.Node) (string, int64, *negotiation.Message, error) {
	if root.Name != "envelope" {
		return "", 0, nil, fmt.Errorf("wsrpc: expected <envelope>, got <%s>", root.Name)
	}
	id := root.AttrOr("negotiation", "")
	if id == "" {
		return "", 0, nil, fmt.Errorf("wsrpc: envelope without negotiation id")
	}
	var seq int64
	if raw := root.AttrOr("seq", ""); raw != "" {
		var err error
		seq, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || seq <= 0 {
			return "", 0, nil, &Error{
				Op:     "envelope",
				Status: http.StatusBadRequest,
				Code:   "envelope",
				Err:    fmt.Errorf("wsrpc: malformed envelope seq %q", raw),
			}
		}
	}
	tm := root.Child("tnMessage")
	if tm == nil {
		return "", 0, nil, fmt.Errorf("wsrpc: envelope without tnMessage")
	}
	m, err := negotiation.MessageFromDOM(tm)
	if err != nil {
		return "", 0, nil, err
	}
	return id, seq, m, nil
}

// decodeResponse interprets an HTTP response body as either a fault or
// the expected root element.
func decodeResponse(resp *http.Response, wantRoot string) (*xmldom.Node, error) {
	defer resp.Body.Close()
	root, err := parseBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("wsrpc: bad response (%s): %w", resp.Status, err)
	}
	if root.Name == "fault" {
		return nil, faultFromDOM(root)
	}
	if root.Name != wantRoot {
		return nil, fmt.Errorf("wsrpc: expected <%s> response, got <%s>", wantRoot, root.Name)
	}
	return root, nil
}
