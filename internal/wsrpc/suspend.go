package wsrpc

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/store"
	"trustvo/internal/xmldom"
)

// Server-side negotiation suspend/resume.
//
// On graceful shutdown, a TNService can persist its live, unfinished
// sessions into the WAL-backed store — the negotiation tree snapshot
// plus the reply cache — and a restarted service restores them, so a
// client retrying (or resuming from its own ticket) continues the same
// negotiation instead of getting "unknown negotiation". This is the
// server half of the Trust-X interruption-recovery mechanism; the
// client half is TNClient.Resume.

// KindTNSession is the store kind for suspended negotiation sessions.
const KindTNSession = "tnsession"

// suspendDoc snapshots one session into its store document under the
// session lock, returning nil when there is nothing to resume.
func (sess *tnSession) suspendDoc(id string) *xmldom.Node {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.suspendDocLocked(id)
}

// suspendDocLocked is suspendDoc for callers already holding sess.mu
// (the per-message standby ship runs inside the exchange handler's
// critical section).
func (sess *tnSession) suspendDocLocked(id string) *xmldom.Node {
	if sess.endpoint == nil {
		return nil // finished
	}
	state, err := sess.endpoint.SnapshotDOM()
	if err != nil {
		return nil
	}
	doc := xmldom.NewElement("tnSession").
		SetAttr("id", id).
		SetAttr("lastSeq", strconv.FormatInt(sess.lastSeq, 10)).
		SetAttr("lastStatus", strconv.Itoa(sess.lastReplyStatus))
	doc.AppendChild(state)
	if sess.lastReply != "" {
		lr := xmldom.NewElement("lastReply")
		lr.AppendChild(xmldom.NewText(sess.lastReply))
		doc.AppendChild(lr)
	}
	return doc
}

// pick returns the stripe's unfinished sessions that filter accepts
// (nil accepts all), removing them from the stripe when remove is set.
func (sh *sessionShard) pick(filter func(id string) bool, remove bool) map[string]*tnSession {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	picked := make(map[string]*tnSession, len(sh.m))
	for id, sess := range sh.m {
		if sess.done.Load() || (filter != nil && !filter(id)) {
			continue
		}
		picked[id] = sess
		if remove {
			delete(sh.m, id)
		}
	}
	return picked
}

// exportSessions is the one export loop of SuspendSessions and, with
// remove set (each session leaves the table and is retired),
// DrainSessions. It picks each stripe's sessions under the stripe lock
// and serializes them outside it, handing emit each suspended-state
// document (nil: nothing to resume). The first emit error stops it.
func (s *TNService) exportSessions(filter func(id string) bool, remove bool, emit func(id string, doc *xmldom.Node) error) error {
	for _, sh := range s.shardTable() {
		for id, sess := range sh.pick(filter, remove) {
			if remove {
				s.retire(sess)
			}
			if err := emit(id, sess.suspendDoc(id)); err != nil {
				return err
			}
		}
	}
	return nil
}

// SuspendSessions persists every live, unfinished session to db and
// returns how many were written. Sessions that never processed a
// message carry no state worth saving and are skipped. Call after the
// HTTP server has drained (no in-flight handlers).
func (s *TNService) SuspendSessions(db *store.Store) (int, error) {
	if db == nil {
		return 0, fmt.Errorf("wsrpc: suspend requires a store")
	}
	suspended := 0
	err := s.exportSessions(nil, false, func(id string, doc *xmldom.Node) error {
		if doc == nil {
			return nil
		}
		if err := db.Put(KindTNSession, id, doc); err != nil {
			return err
		}
		suspended++
		return nil
	})
	if err != nil {
		return suspended, err
	}
	if m := s.Metrics; m != nil && suspended > 0 {
		m.Counter("tn_sessions_suspended_total").Add(int64(suspended))
	}
	return suspended, db.Sync()
}

// ResumeSessions restores sessions previously written by SuspendSessions
// and deletes their records. Unrestorable records (e.g. a credential no
// longer held) are logged, removed, and skipped — they must not wedge
// startup.
func (s *TNService) ResumeSessions(db *store.Store) (int, error) {
	if db == nil {
		return 0, fmt.Errorf("wsrpc: resume requires a store")
	}
	resumed := 0
	for _, rec := range db.List(KindTNSession) {
		id := rec.Key
		doc, err := rec.Doc()
		var sess *tnSession
		if err == nil {
			sess, err = s.restoreSession(doc)
		}
		if err != nil {
			s.logf("wsrpc: dropping unrestorable suspended session %s: %v", id, err)
			db.Delete(KindTNSession, id)
			continue
		}
		if s.insertSession(id, sess, sessionResumed) == nil {
			resumed++
		}
		db.Delete(KindTNSession, id)
	}
	return resumed, db.Sync()
}

func (s *TNService) restoreSession(doc *xmldom.Node) (*tnSession, error) {
	if doc.Name != "tnSession" {
		return nil, fmt.Errorf("expected <tnSession>, got <%s>", doc.Name)
	}
	party, err := s.sessionParty()
	if err != nil {
		return nil, err
	}
	ep, err := negotiation.RestoreEndpoint(party, doc.Child("negotiationState"))
	if err != nil {
		return nil, err
	}
	seq, err := s.replayAttr(doc, "lastSeq")
	if err != nil {
		return nil, err
	}
	status, err := s.replayAttr(doc, "lastStatus")
	if err != nil {
		return nil, err
	}
	sess := &tnSession{endpoint: ep, lastUsed: time.Now(), lastSeq: seq, lastReplyStatus: int(status)}
	if lr := doc.Child("lastReply"); lr != nil {
		sess.lastReply = lr.Text()
	}
	return sess, nil
}

// replayAttr parses an optional reply-cache attribute. A malformed one
// is rejected, not collapsed to 0: seq 0 disables the replay cache, so
// the session would silently lose its at-most-once protection.
func (s *TNService) replayAttr(doc *xmldom.Node, name string) (int64, error) {
	raw := doc.AttrOr(name, "")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || v < 0 {
		s.countBadEnvelope()
		return 0, &Error{
			Op:     "resume",
			Status: http.StatusBadRequest,
			Code:   "envelope",
			Err:    fmt.Errorf("wsrpc: malformed %s %q in suspended session", name, raw),
		}
	}
	return v, nil
}
