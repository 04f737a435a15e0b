package cluster

import (
	"encoding/base64"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"trustvo/internal/pki"
	"trustvo/internal/xmldom"
)

// Regression tests for the standby authentication gap vetvo's credtaint
// analyzer surfaced: standby ships used to travel and be adopted
// unsigned, so a forged POST to /cluster/standby could hijack a
// negotiation through the failover path. Ships are now signed with the
// cluster key and verified — expiry before signature — at POST
// ingress, at local takeStandby, and at remote fetchStandby.

// postStandby POSTs a raw standbyShip body and returns the status code.
func postStandby(t *testing.T, base, body string) int {
	t.Helper()
	resp, err := http.Post(base+"/cluster/standby", "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func TestStandbyShipRejectsUnsignedAndForged(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	c.addNode("a")
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-1")

	// No signature at all: schema rejection.
	bare := xmldom.NewElement("standbyShip").SetAttr("id", "sess-1")
	bare.AppendChild(doc)
	if got := postStandby(t, b.srv.URL, bare.XML()); got != http.StatusBadRequest {
		t.Fatalf("unsigned ship: got %d, want %d", got, http.StatusBadRequest)
	}

	// Signed by a key the cluster does not hold: signature rejection.
	intruder := pki.MustGenerateKeyPair()
	notAfter := time.Now().Add(time.Hour).UTC().Format(time.RFC3339)
	sig := intruder.Sign(standbyKind.signedBytes("sess-1", notAfter, doc.XML()))
	forged := xmldom.NewElement("standbyShip").
		SetAttr("id", "sess-1").
		SetAttr("notAfter", notAfter)
	forged.AppendChild(doc)
	sigEl := xmldom.NewElement("signature")
	sigEl.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(sig)))
	forged.AppendChild(sigEl)
	if got := postStandby(t, b.srv.URL, forged.XML()); got != http.StatusForbidden {
		t.Fatalf("forged ship: got %d, want %d", got, http.StatusForbidden)
	}

	// Nothing above may have entered the standby table.
	if n := b.node.StandbyCount(); n != 0 {
		t.Fatalf("rejected ships left %d standby entries", n)
	}
}

func TestStandbyShipRejectsExpired(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-2")
	notAfter := time.Now().Add(-time.Minute).UTC().Format(time.RFC3339)
	sig := c.keys.Sign(standbyKind.signedBytes("sess-2", notAfter, doc.XML()))
	ship := xmldom.NewElement("standbyShip").
		SetAttr("id", "sess-2").
		SetAttr("notAfter", notAfter)
	ship.AppendChild(doc)
	sigEl := xmldom.NewElement("signature")
	sigEl.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(sig)))
	ship.AppendChild(sigEl)
	if got := postStandby(t, b.srv.URL, ship.XML()); got != http.StatusGone {
		t.Fatalf("expired ship: got %d, want %d", got, http.StatusGone)
	}
}

func TestStandbySignedRoundTrip(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	c.addNode("a")
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-3")
	ship, err := b.node.seal(standbyKind, "sess-3", doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := postStandby(t, b.srv.URL, ship.XML()); got != http.StatusOK {
		t.Fatalf("legitimate ship: got %d, want %d", got, http.StatusOK)
	}
	adopted, ok := b.node.takeStandby("sess-3")
	if !ok {
		t.Fatal("takeStandby refused a legitimately signed ship")
	}
	if adopted.AttrOr("id", "") != "sess-3" {
		t.Fatalf("takeStandby returned wrong doc: %s", adopted.XML())
	}
}

func TestTakeStandbyRefusesTamperedTable(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-4")
	ship, err := b.node.seal(standbyKind, "sess-4", doc)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the stored snapshot after signing: the signature no
	// longer covers what would be adopted.
	tampered := strings.Replace(ship.XML(), "sess-4", "sess-x", 1)
	b.node.putStandby("sess-4", tampered)
	if _, ok := b.node.takeStandby("sess-4"); ok {
		t.Fatal("takeStandby adopted a tampered snapshot")
	}
}

func TestHandleStandbyGetRefusesStale(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-5")
	ship, err := b.node.seal(standbyKind, "sess-5", doc)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a snapshot far past the table TTL; the GET surrender path
	// must apply the same staleness rule takeStandby does.
	b.node.mu.Lock()
	b.node.standby["sess-5"] = standbyDoc{xml: ship.XML(), at: time.Now().Add(-24 * time.Hour)}
	b.node.mu.Unlock()

	resp, err := http.Get(b.srv.URL + "/cluster/standby?negotiation=sess-5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stale standby GET: got %d, want %d", resp.StatusCode, http.StatusNotFound)
	}
	if n := b.node.StandbyCount(); n != 0 {
		t.Fatalf("stale snapshot still held after GET (%d entries)", n)
	}
}
