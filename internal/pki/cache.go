package pki

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"trustvo/internal/xtnl"
)

// Verification memoization.
//
// Concurrent joins verify the same credentials over and over: every
// exchange re-checks the counterpart's signature and, for non-root
// issuers, re-resolves the whole delegation chain. Both are pure
// functions of (credential bytes, trust anchors, CRLs) — so a cache
// keyed by issuer + signature (the signature covers the credential's
// canonical bytes, making it a collision-free fingerprint of the
// content) can skip the ed25519 work entirely on repeat verifications.
//
// Invalidation contract:
//
//   - AddRoot / AddCRL drop the whole cache: trust anchors and
//     revocation state are inputs to every cached result.
//   - Expiry is re-checked on every hit: a cached success stores private
//     clones of the credential and its chain, and the hit path
//     re-validates each validity window against the caller's "now" plus
//     the CRL maps, so a credential (or chain link) that expires or is
//     revoked after being cached never verifies again. The clones keep
//     a caller that later edits its own credential from moving the
//     windows the cache checks.
//   - Only successes are cached. Failures may be transient (a chain
//     link arriving in a later pool) and are cheap to recompute.

// verifyCacheLimit bounds the cache; past it the map is dropped
// wholesale. Disclosed credentials come from counterparts, so an
// unbounded map would let an adversary grow server memory one signed
// credential at a time.
const verifyCacheLimit = 4096

type verifyCacheEntry struct {
	// cred is a clone of the verified credential. A hit must present a
	// credential with the same content (sameContent): otherwise one
	// carrying a genuine signature over DIFFERENT content (a tamper
	// attempt that would fail ed25519.Verify) could ride a cache hit
	// past verification.
	cred  *xtnl.Credential
	chain []*xtnl.Credential // clones of the delegation chain used; nil for direct trust
}

// CacheStats is a snapshot of the verification cache counters, the
// hit/miss telemetry behind the concurrent-join throughput path (see
// cmd/benchjoin -concurrency).
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Entries       int   `json:"entries"`
	Invalidations int64 `json:"invalidations"`
}

// verifyCache is the memo table embedded in TrustStore. Its mutex is
// separate from the store's so a cache insert never contends with root
// or CRL lookups.
type verifyCache struct {
	mu            sync.RWMutex
	entries       map[string]*verifyCacheEntry
	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

func cacheKey(c *xtnl.Credential) string {
	return c.Issuer + "\x00" + string(c.Signature)
}

func (vc *verifyCache) lookup(key string) (*verifyCacheEntry, bool) {
	vc.mu.RLock()
	defer vc.mu.RUnlock()
	e, ok := vc.entries[key]
	return e, ok
}

func (vc *verifyCache) store(key string, e *verifyCacheEntry) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if len(vc.entries) >= verifyCacheLimit {
		vc.entries = nil
		vc.invalidations.Add(1)
	}
	if vc.entries == nil {
		vc.entries = make(map[string]*verifyCacheEntry)
	}
	vc.entries[key] = e
}

// invalidate drops every entry; called whenever trust inputs change.
func (vc *verifyCache) invalidate() {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.entries = nil
	vc.invalidations.Add(1)
}

// cachedVerify returns the memoized chain for c when a previous success
// is still valid at now (validity windows and revocation are re-checked
// on every hit; only the signature work is skipped).
func (ts *TrustStore) cachedVerify(c *xtnl.Credential, now time.Time) ([]*xtnl.Credential, bool) {
	if len(c.Signature) == 0 {
		return nil, false
	}
	e, ok := ts.cache.lookup(cacheKey(c))
	if !ok {
		ts.cache.misses.Add(1)
		return nil, false
	}
	if !sameContent(c, e.cred) {
		ts.cache.misses.Add(1)
		return nil, false
	}
	if !e.cred.ValidAt(now) || ts.IsRevoked(e.cred) {
		ts.cache.misses.Add(1)
		return nil, false
	}
	for _, link := range e.chain {
		if !link.ValidAt(now) || ts.IsRevoked(link) {
			ts.cache.misses.Add(1)
			return nil, false
		}
	}
	ts.cache.hits.Add(1)
	return e.chain, true
}

// sameContent reports whether a presented credential carries the content
// of a cached one: every field SignedBytes serializes, attributes in
// order. Equal fields give equal canonical bytes, so this is at least as
// strict as comparing SignedBytes, without rebuilding them on each hit.
func sameContent(c, cached *xtnl.Credential) bool {
	if c.ID != cached.ID || c.Type != cached.Type || c.Issuer != cached.Issuer ||
		c.Holder != cached.Holder || !bytes.Equal(c.HolderKey, cached.HolderKey) ||
		!c.ValidFrom.Equal(cached.ValidFrom) || !c.ValidUntil.Equal(cached.ValidUntil) ||
		c.Sensitivity != cached.Sensitivity || len(c.Attributes) != len(cached.Attributes) {
		return false
	}
	for i, a := range c.Attributes {
		if a != cached.Attributes[i] {
			return false
		}
	}
	return true
}

// rememberVerify memoizes a successful verification.
func (ts *TrustStore) rememberVerify(c *xtnl.Credential, chain []*xtnl.Credential) {
	if len(c.Signature) == 0 {
		return
	}
	e := &verifyCacheEntry{cred: c.Clone()}
	for _, link := range chain {
		e.chain = append(e.chain, link.Clone())
	}
	ts.cache.store(cacheKey(c), e)
}

// CacheStats snapshots the verification-cache counters.
func (ts *TrustStore) CacheStats() CacheStats {
	ts.cache.mu.RLock()
	defer ts.cache.mu.RUnlock()
	return CacheStats{
		Hits:          ts.cache.hits.Load(),
		Misses:        ts.cache.misses.Load(),
		Entries:       len(ts.cache.entries),
		Invalidations: ts.cache.invalidations.Load(),
	}
}
