package pki

import (
	"errors"
	"sync"
	"testing"
	"time"

	"trustvo/internal/xtnl"
)

func issueTestCred(t *testing.T, ca *Authority, typ string) *xtnl.Credential {
	t.Helper()
	c, err := ca.Issue(IssueRequest{Type: typ, Holder: "Holder"})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestVerifyCacheHitSkipsRecompute(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	cred := issueTestCred(t, ca, "Badge")
	now := time.Now()

	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
	st := ts.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after two verifies: %+v", st)
	}
}

func TestVerifyCacheRejectsTamperedContent(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	cred := issueTestCred(t, ca, "Badge")
	now := time.Now()
	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
	// Same genuine signature, different content: must NOT ride the
	// cached success past verification.
	tampered := cred.Clone()
	tampered.SetAttr("granted", "everything")
	if err := ts.Verify(tampered, now); err == nil {
		t.Fatal("tampered credential verified via cache")
	}
	// And the original still verifies.
	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCacheIgnoresCallerMutation(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	cred := issueTestCred(t, ca, "Badge")
	if err := ts.Verify(cred, time.Now()); err != nil {
		t.Fatal(err)
	}
	// The caller keeps the wire copy and later edits its own credential:
	// the cache must still judge the wire copy by the window it was
	// issued with, not by the caller's edit.
	wire := cred.Clone()
	cred.ValidUntil = cred.ValidUntil.Add(1000 * time.Hour)
	if err := ts.Verify(wire, wire.ValidUntil.Add(time.Hour)); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired credential after caller mutation: err = %v, want ErrExpired", err)
	}
}

func TestVerifyCacheInvalidatedByCRL(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	cred := issueTestCred(t, ca, "Badge")
	now := time.Now()
	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
	ca.Revoke(cred.ID)
	if err := ts.AddCRL(ca.CRL()); err != nil {
		t.Fatal(err)
	}
	if err := ts.Verify(cred, now); err == nil {
		t.Fatal("revoked credential verified via stale cache")
	}
	if st := ts.CacheStats(); st.Invalidations == 0 {
		t.Fatalf("AddCRL did not invalidate: %+v", st)
	}
}

func TestVerifyCacheRespectsExpiryOnHit(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	cred := issueTestCred(t, ca, "Badge")
	now := time.Now()
	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
	// The cached success must not outlive the validity window.
	past := cred.ValidUntil.Add(time.Hour)
	if err := ts.Verify(cred, past); err == nil {
		t.Fatal("expired credential verified via cache")
	}
}

func TestVerifyChainCachedWithChain(t *testing.T) {
	root := MustNewAuthority("Root")
	sub := MustNewAuthority("Sub")
	ts := NewTrustStore(root)
	del, err := root.Delegate(sub, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := sub.Issue(IssueRequest{Type: "Badge", Holder: "H"})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	pool := []*xtnl.Credential{del}
	chain1, err := ts.VerifyChain(cred, pool, now)
	if err != nil {
		t.Fatal(err)
	}
	// Second call hits the cache and returns the same chain — even with
	// an empty pool, since the chain was already proven.
	chain2, err := ts.VerifyChain(cred, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain1) != 1 || len(chain2) != 1 || chain2[0].ID != chain1[0].ID {
		t.Fatalf("chains differ: %v vs %v", chain1, chain2)
	}
	if st := ts.CacheStats(); st.Hits == 0 {
		t.Fatalf("no cache hit recorded: %+v", st)
	}
}

func TestVerifyCacheConcurrent(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	creds := make([]*xtnl.Credential, 8)
	for i := range creds {
		creds[i] = issueTestCred(t, ca, "Badge")
	}
	now := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := ts.Verify(creds[(g+i)%len(creds)], now); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := ts.CacheStats()
	if st.Hits == 0 || st.Hits+st.Misses != 400 {
		t.Fatalf("stats: %+v", st)
	}
}
