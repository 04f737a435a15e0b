package wsrpc

import (
	"errors"
	"fmt"
	"net/http"

	"trustvo/internal/xmldom"
)

// Cluster-facing session-table operations. internal/cluster routes
// sessions across nodes by hashing their ids onto a ring; these methods
// are the service-side primitives failover and migration build on:
// adopt a shipped session, materialize an externally-assigned id, drain
// sessions off a node, and answer ownership probes.

// HasSession reports whether id maps to a live session, without
// refreshing its idle clock.
func (s *TNService) HasSession(id string) bool {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.m[id] != nil
}

// AdoptSessionDoc restores one suspended-session document (the
// <tnSession> produced by the suspend/standby path) into the live table
// under its embedded id, taking a capacity slot without the MaxSessions
// check (see insertSession). When a live session already holds the id
// the adoption is skipped — the live copy is at least as fresh as any
// shipped snapshot, so a duplicate or stale delivery must not clobber it.
func (s *TNService) AdoptSessionDoc(doc *xmldom.Node) (string, error) {
	id := doc.AttrOr("id", "")
	if id == "" {
		return "", &Error{
			Op:     "adopt",
			Status: http.StatusBadRequest,
			Code:   "schema",
			Err:    fmt.Errorf("wsrpc: session document without id"),
		}
	}
	sess, err := s.restoreSession(doc)
	if err != nil {
		return "", err
	}
	if err := s.insertSession(id, sess, sessionAdopted); err != nil && !errors.Is(err, errSessionExists) {
		return "", err
	}
	return id, nil
}

// EnsureSession materializes a fresh session under an externally
// assigned id when none exists (idempotent). The cluster router uses
// this when the first message of a negotiation arrives for an id whose
// /tn/start was served by a node that died before any state shipped:
// start assigns an id and nothing more, so a fresh endpoint loses
// nothing.
func (s *TNService) EnsureSession(id string) error {
	if s.HasSession(id) {
		return nil
	}
	if err := s.insertSession(id, nil, sessionFresh); err != nil && !errors.Is(err, errSessionExists) {
		return err
	}
	return nil
}

// DrainSessions snapshots and removes live, unfinished sessions,
// returning their suspended-state documents keyed by id. A nil filter
// drains everything; otherwise only ids the filter accepts move.
// Sessions with nothing to snapshot (no message processed yet) are
// dropped from the table but returned with a nil document, so the
// caller can still count them. Each removed session's capacity slot is
// released.
func (s *TNService) DrainSessions(filter func(id string) bool) map[string]*xmldom.Node {
	out := make(map[string]*xmldom.Node)
	_ = s.exportSessions(filter, true, func(id string, doc *xmldom.Node) error { // emit never fails
		out[id] = doc
		return nil
	})
	return out
}
