package cluster

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"trustvo/internal/store"
	"trustvo/internal/xmldom"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func chaosDoc(i int) string { return fmt.Sprintf("<doc n=\"%d\"/>", i) }

// TestSyncReplicationGatesAcks: with SyncRepl, a Put acknowledged by the
// leader is already on the follower, so killing the leader right after
// the ack loses nothing.
func TestSyncReplicationGatesAcks(t *testing.T) {
	c := newTestCluster(t, true, 0)
	defer c.shutdown()
	c.addNode("n1")
	c.addNode("n2")
	c.setLeader("n1")

	leaderDB := c.get("n1").db
	for i := 0; i < 20; i++ {
		if err := leaderDB.PutXML("chaos", fmt.Sprintf("k%02d", i), chaosDoc(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Sync mode: the ack already implies follower possession — no wait.
	follower := c.get("n2").db
	for i := 0; i < 20; i++ {
		rec, err := follower.Get("chaos", fmt.Sprintf("k%02d", i))
		if err != nil {
			t.Fatalf("acked k%02d missing on follower: %v", i, err)
		}
		if rec.XML != chaosDoc(i) {
			t.Fatalf("k%02d content %q", i, rec.XML)
		}
	}
	// The follower survives a leader kill with everything acked.
	c.kill("n1")
	c.failover()
	if got := len(c.get("n2").db.Keys("chaos")); got != 20 {
		t.Fatalf("promoted follower has %d/20 records", got)
	}
}

// TestSnapshotCatchupMidStream: a follower joining after the leader's
// in-memory log was trimmed catches up from a full store snapshot, and
// the reconcile deletes stray local records absent from the leader.
func TestSnapshotCatchupMidStream(t *testing.T) {
	c := newTestCluster(t, false, 8) // tiny log: 30 writes overflow it
	defer c.shutdown()
	c.addNode("n1")
	c.setLeader("n1")
	leaderDB := c.get("n1").db
	for i := 0; i < 30; i++ {
		if err := leaderDB.PutXML("chaos", fmt.Sprintf("k%02d", i), chaosDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	catchupsBefore := c.reg.Counter("cluster_repl_catchups_total").Value()

	n2 := c.addNode("n2")
	// A stray record the leader never had must not survive the reconcile.
	if err := n2.db.PutXML("chaos", "stray", "<doc stray=\"yes\"/>"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool {
		return n2.node.Applied() >= c.get("n1").node.Head()
	})
	// Poll rather than assert once: the follower's applied position (what
	// the wait above sees) advances inside the leader's catch-up call,
	// a moment before the leader increments the counter on return.
	waitUntil(t, 5*time.Second, "snapshot catch-up counter", func() bool {
		return c.reg.Counter("cluster_repl_catchups_total").Value() > catchupsBefore
	})
	if _, err := n2.db.Get("chaos", "stray"); err == nil {
		t.Fatal("stray record survived snapshot reconcile")
	}
	for i := 0; i < 30; i++ {
		rec, err := n2.db.Get("chaos", fmt.Sprintf("k%02d", i))
		if err != nil || rec.XML != chaosDoc(i) {
			t.Fatalf("k%02d after catch-up: %v", i, err)
		}
	}
}

// postReplicate drives /cluster/replicate directly with a raw payload,
// returning the follower's reported applied position.
func postReplicate(t *testing.T, base string, epoch, from uint64, payload []byte) uint64 {
	t.Helper()
	req := fmt.Sprintf(`<replicate epoch="%d" from="%d">%s</replicate>`,
		epoch, from, base64.StdEncoding.EncodeToString(payload))
	resp, err := http.Post(base+"/cluster/replicate", "application/xml", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	root, err := xmldom.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicate: status %d, %s", resp.StatusCode, root.XML())
	}
	if root.Name != "replicated" {
		t.Fatalf("replicate: unexpected <%s>", root.Name)
	}
	return parseU64(root.AttrOr("applied", "0"))
}

func makeEntries(lo, hi int) []store.Entry {
	out := make([]store.Entry, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, store.Entry{Op: store.OpPut, Kind: "chaos", Key: fmt.Sprintf("k%02d", i), Doc: chaosDoc(i)})
	}
	return out
}

// TestTornTailOverWire: a frame stream truncated mid-frame applies its
// good prefix — the store's torn-tail WAL recovery rule, applied to the
// wire — and the follower's reported position makes the sender resend
// exactly the rest.
func TestTornTailOverWire(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	follower := c.addNode("n1") // never promoted: pure follower

	full, err := store.EncodeEntries(makeEntries(0, 6))
	if err != nil {
		t.Fatal(err)
	}
	three, err := store.EncodeEntries(makeEntries(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Truncate inside the fourth frame (frames 4..6 are equal-sized).
	frameLen := (len(full) - len(three)) / 3
	torn := full[:len(three)+frameLen/2]
	if applied := postReplicate(t, follower.srv.URL, 1, 0, torn); applied != 3 {
		t.Fatalf("torn stream applied %d, want the 3-frame good prefix", applied)
	}
	// Sender rewinds to the reported position and resends the remainder.
	rest, err := store.EncodeEntries(makeEntries(3, 6))
	if err != nil {
		t.Fatal(err)
	}
	if applied := postReplicate(t, follower.srv.URL, 1, 3, rest); applied != 6 {
		t.Fatalf("resend applied %d, want 6", applied)
	}
	for i := 0; i < 6; i++ {
		rec, err := follower.db.Get("chaos", fmt.Sprintf("k%02d", i))
		if err != nil || rec.XML != chaosDoc(i) {
			t.Fatalf("k%02d after torn-tail recovery: %v", i, err)
		}
	}
}

// TestDuplicateFramesIdempotent: redelivered and overlapping windows are
// skipped by position, so retries of replication RPCs are harmless.
func TestDuplicateFramesIdempotent(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	follower := c.addNode("n1")

	batch, err := store.EncodeEntries(makeEntries(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if applied := postReplicate(t, follower.srv.URL, 1, 0, batch); applied != 5 {
		t.Fatalf("first delivery applied %d", applied)
	}
	// Exact duplicate: no change.
	if applied := postReplicate(t, follower.srv.URL, 1, 0, batch); applied != 5 {
		t.Fatalf("duplicate delivery applied %d, want 5", applied)
	}
	// Overlapping window [2,7): only the new tail applies.
	overlap, err := store.EncodeEntries(makeEntries(2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if applied := postReplicate(t, follower.srv.URL, 1, 2, overlap); applied != 7 {
		t.Fatalf("overlapping delivery applied %d, want 7", applied)
	}
	// A gap (from beyond applied) applies nothing and reports position.
	gap, err := store.EncodeEntries(makeEntries(9, 10))
	if err != nil {
		t.Fatal(err)
	}
	if applied := postReplicate(t, follower.srv.URL, 1, 9, gap); applied != 7 {
		t.Fatalf("gap delivery applied %d, want 7", applied)
	}
	if got := len(follower.db.Keys("chaos")); got != 7 {
		t.Fatalf("follower has %d records, want 7", got)
	}
	// Stale epoch after adopting a newer one is fenced off.
	if applied := postReplicate(t, follower.srv.URL, 3, 7, nil); applied != 7 {
		t.Fatalf("epoch bump delivery applied %d", applied)
	}
	resp, err := http.Post(follower.srv.URL+"/cluster/replicate", "application/xml",
		strings.NewReader(`<replicate epoch="2" from="7"></replicate>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale epoch accepted: status %d", resp.StatusCode)
	}
}

// TestFollowerApplyBumpsKindGeneration: replicated applies on a follower
// go through the store's normal write path, so they bump the follower's
// per-kind generation — the key TNService's party memo revalidates on. A
// follower that memoizes a view of some kinds therefore never serves one
// from before an applied batch.
func TestFollowerApplyBumpsKindGeneration(t *testing.T) {
	c := newTestCluster(t, true, 0) // sync: leader acks imply follower apply
	defer c.shutdown()
	c.addNode("n1")
	c.addNode("n2")
	c.setLeader("n1")

	followerDB := c.get("n2").db
	leaderDB := c.get("n1").db

	if err := leaderDB.PutXML("chaos", "hot", chaosDoc(1)); err != nil {
		t.Fatal(err)
	}
	rec, err := followerDB.Get("chaos", "hot")
	if err != nil {
		t.Fatalf("follower read: %v", err)
	}
	if rec.XML != chaosDoc(1) {
		t.Fatalf("follower record = %q", rec.XML)
	}
	gen := followerDB.KindGeneration("chaos")

	// Leader overwrite: the sync ack means the follower applied it, and the
	// apply must have moved the follower's generation for that kind.
	if err := leaderDB.PutXML("chaos", "hot", chaosDoc(2)); err != nil {
		t.Fatal(err)
	}
	if got := followerDB.KindGeneration("chaos"); got == gen {
		t.Fatalf("replicated apply left the follower's kind generation at %d", got)
	}
	rec, err = followerDB.Get("chaos", "hot")
	if err != nil {
		t.Fatal(err)
	}
	if rec.XML != chaosDoc(2) {
		t.Fatalf("follower served stale record after replicated apply: %q", rec.XML)
	}
}
