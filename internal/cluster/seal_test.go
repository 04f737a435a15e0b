package cluster

import (
	"crypto/ed25519"
	"encoding/base64"
	"net/http"
	"strings"
	"testing"
	"time"

	"trustvo/internal/pki"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
)

// goldenKeys is a fixed cluster key (seed bytes 0..31), so signatures
// over fixed inputs are fixed bytes.
func goldenKeys() *pki.KeyPair {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(i)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &pki.KeyPair{Public: priv.Public().(ed25519.PublicKey), Private: priv}
}

// goldenDoc is a suspended-session document exercising nesting and
// text escaping.
func goldenDoc() *xmldom.Node {
	doc := xmldom.NewElement("tnSession").SetAttr("id", "golden-1").SetAttr("lastSeq", "3").SetAttr("lastStatus", "200")
	doc.AppendChild(xmldom.NewElement("negotiationState").SetAttr("role", "controller"))
	lr := xmldom.NewElement("lastReply")
	lr.AppendChild(xmldom.NewText(`<envelope negotiation="golden-1">&"'</envelope>`))
	doc.AppendChild(lr)
	return doc
}

// TestSealWireGolden pins the envelope wire format: for a fixed key,
// id, notAfter and document, seal must produce these sessionTicket and
// standbyShip bytes (signature included), so nodes of different builds
// keep verifying each other's envelopes.
func TestSealWireGolden(t *testing.T) {
	n := &Node{cfg: Config{Name: "n1"}, keys: goldenKeys()}
	cases := []struct {
		kind     *sealKind
		notAfter string
		want     string
	}{
		{ticketKind, "2026-10-18T06:05:34Z",
			`<sessionTicket id="golden-1" node="n1" notAfter="2026-10-18T06:05:34Z"><tnSession id="golden-1" lastSeq="3" lastStatus="200"><negotiationState role="controller"/><lastReply>&lt;envelope negotiation="golden-1"&gt;&amp;"'&lt;/envelope&gt;</lastReply></tnSession><signature>KhN5X6OrOw3QX8Yy11tu4btf1V1+7ewkk7OWnMFIGwMMQzZbNXREByzFkKVJWenZ54Avun+Tj2NlhXfkn1nfAg==</signature></sessionTicket>`},
		{standbyKind, "2026-10-18T06:13:34Z",
			`<standbyShip id="golden-1" node="n1" notAfter="2026-10-18T06:13:34Z"><tnSession id="golden-1" lastSeq="3" lastStatus="200"><negotiationState role="controller"/><lastReply>&lt;envelope negotiation="golden-1"&gt;&amp;"'&lt;/envelope&gt;</lastReply></tnSession><signature>nytKZF+YTVXej4HvwCYEIeZ79qEOzGyueE58LMrwfDEpp+zY30ZfXLtToZgzsAPHA32qBP8k3O5pWvw7Fpe4Dg==</signature></standbyShip>`},
	}
	for _, tc := range cases {
		exp, err := time.Parse(time.RFC3339, tc.notAfter)
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.sealUntil(tc.kind, "golden-1", goldenDoc(), exp)
		if err != nil {
			t.Fatal(err)
		}
		if got.XML() != tc.want {
			t.Errorf("%s wire bytes changed:\n got %s\nwant %s", tc.kind.root, got.XML(), tc.want)
		}
	}
}

// TestSealDomainSeparation: a validly signed envelope of one kind,
// re-rooted as the other kind, fails the other kind's signature check
// (403) and leaves no state behind — the per-kind signature prefix is
// what stops a standby ship being replayed as a migration ticket and
// vice versa.
func TestSealDomainSeparation(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	c.addNode("a")
	b := c.addNode("b")

	cases := []struct {
		name   string
		sealed *sealKind
		as     *sealKind
		code   string
	}{
		{"standby ship replayed as ticket", standbyKind, ticketKind, "ticket-signature"},
		{"ticket replayed as standby ship", ticketKind, standbyKind, "standby-signature"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id := "replay-" + tc.sealed.fault
			env, err := b.node.seal(tc.sealed, id, xmldom.NewElement("tnSession").SetAttr("id", id))
			if err != nil {
				t.Fatal(err)
			}
			env.Name = tc.as.root
			resp, err := http.Post(b.srv.URL+tc.as.path, wsrpc.ContentType, strings.NewReader(env.XML()))
			if err != nil {
				t.Fatal(err)
			}
			root, perr := xmldom.Parse(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusForbidden {
				t.Fatalf("status %d, want 403", resp.StatusCode)
			}
			if perr != nil {
				t.Fatal(perr)
			}
			if code := root.AttrOr("code", ""); code != tc.code {
				t.Fatalf("fault code %q, want %q", code, tc.code)
			}
			if b.tn.HasSession(id) {
				t.Fatal("replayed envelope was adopted")
			}
			if n := b.node.StandbyCount(); n != 0 {
				t.Fatalf("replayed envelope left %d standby entries", n)
			}
		})
	}
}

// FuzzUnsealSession feeds arbitrary bytes to unseal under both kinds.
// It must never panic, and it must never yield a document unless the
// envelope's signature verifies under the cluster key and its expiry
// has not passed — checked here independently of unseal's own code.
func FuzzUnsealSession(f *testing.F) {
	keys := goldenKeys()
	n := &Node{cfg: Config{Name: "n1"}, keys: keys}
	intruder := &Node{cfg: Config{Name: "n1"}, keys: pki.MustGenerateKeyPair()}
	doc := goldenDoc()
	later, earlier := time.Now().Add(time.Hour), time.Now().Add(-time.Hour)
	for _, k := range []*sealKind{ticketKind, standbyKind} {
		valid, _ := n.sealUntil(k, "golden-1", doc.Clone(), later)
		resigned, _ := intruder.sealUntil(k, "golden-1", doc.Clone(), later)
		expired, _ := n.sealUntil(k, "golden-1", doc.Clone(), earlier)
		if _, err := n.unseal(k, valid); err != nil {
			f.Fatalf("valid %s seed rejected: %v", k.root, err)
		}
		raw := valid.XML()
		f.Add([]byte(raw))
		f.Add([]byte(raw[:len(raw)/2]))
		f.Add([]byte(resigned.XML()))
		f.Add([]byte(expired.XML()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		root, err := xmldom.ParseBytes(data)
		if err != nil {
			return
		}
		for _, k := range []*sealKind{ticketKind, standbyKind} {
			before := time.Now()
			got, err := n.unseal(k, root)
			if err != nil {
				if got != nil {
					t.Fatalf("%s: unseal returned a document with error %v", k.root, err)
				}
				continue
			}
			if root.Name != k.root || got != root.Child("tnSession") {
				t.Fatalf("%s: unseal yielded a document from a <%s> envelope", k.root, root.Name)
			}
			notAfter := root.AttrOr("notAfter", "")
			exp, perr := time.Parse(time.RFC3339, notAfter)
			if perr != nil || before.After(exp) {
				t.Fatalf("%s: unseal yielded a document with notAfter %q", k.root, notAfter)
			}
			sigEl := root.Child("signature")
			if sigEl == nil {
				t.Fatalf("%s: unseal yielded an unsigned document", k.root)
			}
			sig, derr := base64.StdEncoding.DecodeString(sigEl.Text())
			msg := k.prefix + root.AttrOr("id", "") + "|" + notAfter + "|" + got.XML()
			if derr != nil || !ed25519.Verify(keys.Public, []byte(msg), sig) {
				t.Fatalf("%s: unseal yielded a document whose signature does not verify", k.root)
			}
		}
	})
}
