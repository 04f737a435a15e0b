package cluster

import (
	"context"
	"errors"
	"net/http"

	"trustvo/internal/xmldom"
)

// Live session migration: a draining (or rebalancing) node removes its
// sessions from the service table, seals each suspended-state document
// as a session ticket (seal.go), and posts it to the session's current
// ring owner, which unseals and adopts it.

// Drain migrates every live, unfinished session to its current ring
// owner. Remove the node from the ring first, so "current owner" is a
// survivor. Sessions with no snapshottable state (no message handled
// yet) are dropped — their clients restart from /tn/start, losing
// nothing acked. Returns how many sessions moved; the first send error
// is reported after all sessions were attempted.
func (n *Node) Drain(ctx context.Context) (int, error) {
	return n.MigrateMisowned(ctx)
}

// MigrateMisowned migrates only sessions the ring no longer assigns to
// this node — the rebalancing pass every survivor runs after membership
// changes (a kill, a revival), so sessions follow their arcs.
func (n *Node) MigrateMisowned(ctx context.Context) (int, error) {
	filter := func(id string) bool {
		owner := n.ring.Owner(id)
		return owner != "" && owner != n.cfg.Name
	}
	moved := 0
	var firstErr error
	for id, doc := range n.tn.DrainSessions(filter) {
		if doc == nil {
			continue // nothing to resume; client restarts from /tn/start
		}
		target := n.ring.Owner(id)
		if target == "" || target == n.cfg.Name {
			// The ring changed back since the filter ran: put it back.
			if _, err := n.tn.AdoptSessionDoc(doc); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := n.postSealed(ctx, ticketKind, target, id, doc); err != nil {
			n.logf("cluster: migrating session %s to %s: %v", id, target, err)
			if firstErr == nil {
				firstErr = err
			}
			// Park the snapshot locally as standby state: if the target is
			// the node adopting this id later, its retry path (or a
			// subsequent migration pass) can still find it here. The
			// standby table only holds sealed ships.
			if ship, serr := n.seal(standbyKind, id, doc); serr == nil {
				n.putStandby(id, ship.XML())
			} else {
				n.logf("cluster: parking standby for %s: %v", id, serr)
			}
			continue
		}
		moved++
	}
	if m := n.metrics; m != nil && moved > 0 {
		m.Counter("cluster_migrations_total").Add(int64(moved))
	}
	return moved, firstErr
}

// handleAdopt unseals and adopts a migrated session. An expired
// ticket is a distinct, typed, counted condition (410, not retryable),
// mirroring the client-side resume ticket rule.
func (n *Node) handleAdopt(w http.ResponseWriter, r *http.Request) {
	root, ok := readClusterBody(w, r, ticketKind.root)
	if !ok {
		return
	}
	doc, err := n.unseal(ticketKind, root)
	if err != nil {
		status, code, _ := unsealFault(ticketKind, err)
		switch {
		case errors.Is(err, errSealExpired):
			if m := n.metrics; m != nil {
				m.Counter("tn_ticket_expired_total").Inc()
			}
		case errors.Is(err, errSealNoKey):
			status, code = http.StatusServiceUnavailable, "no-key"
		}
		writeClusterFault(w, status, code, err.Error())
		return
	}
	if _, err := n.tn.AdoptSessionDoc(doc); err != nil {
		writeWsrpcError(w, err)
		return
	}
	if m := n.metrics; m != nil {
		m.Counter("cluster_adoptions_total", "source", "migration").Inc()
	}
	writeClusterDOM(w, xmldom.NewElement("adopted").SetAttr("id", root.AttrOr("id", "")))
}
