// Package store is an embedded XML document store: the reproduction's
// substitute for the Oracle/MySQL databases the paper's prototype used to
// hold disclosure policies, credentials and ontologies (§6.2–6.3).
//
// The paper's StartNegotiation operation "opens the connection with [the]
// Oracle database containing the disclosure policies and credentials of
// the invoker"; PolicyExchange "checks if the database contains disclosure
// policies protecting the credentials requested"; and policy conditions
// are "XPath queries" over stored XML. This store preserves exactly those
// code paths:
//
//   - documents are stored by (kind, key) and indexed by kind and by the
//     root element's "type" attribute (credential/policy lookup by type);
//   - Query evaluates a compiled XPath predicate over every document of a
//     kind;
//   - durability comes from a pluggable Backend (backend.go) beneath the
//     group-commit committer (commit.go). The default is the crash-safe
//     segmented-WAL engine (v2): a log of CRC-checked frames plus
//     checkpoint snapshots — concurrent writers share one fsync per
//     commit batch, the log rotates into sealed segments at a size
//     threshold (segment.go), and Compact is an online checkpoint that
//     snapshots the live records and deletes only sealed segments
//     (snapshot.go); recovery = newest valid snapshot + replay of later
//     segments, with a torn tail (partial last write after a crash)
//     detected, truncated and never costing an acknowledged write. The
//     other backend is a pure in-memory image (tests, benches, cluster
//     followers). The WAL routes its mutation surface through
//     internal/faultinject's FS hook layer so a crash-point torture
//     harness can kill the engine at every file operation and verify
//     those guarantees.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustvo/internal/faultinject"
	"trustvo/internal/xmldom"
	"trustvo/internal/xpath"
)

// Record is one stored document.
type Record struct {
	Kind string
	Key  string
	// XML is the canonical serialized form (authoritative).
	XML string

	doc *xmldom.Node // lazily parsed cache
}

// Doc returns the parsed document tree (cached). The returned node must
// be treated as read-only; Clone it before mutating.
func (r *Record) Doc() (*xmldom.Node, error) {
	if r.doc == nil {
		n, err := xmldom.ParseString(r.XML)
		if err != nil {
			return nil, fmt.Errorf("store: record %s/%s: %w", r.Kind, r.Key, err)
		}
		r.doc = n
	}
	return r.doc, nil
}

// TypeAttr returns the root element's "type" attribute, the secondary
// index key ("" when absent).
func (r *Record) TypeAttr() string {
	doc, err := r.Doc()
	if err != nil {
		return ""
	}
	return doc.AttrOr("type", "")
}

// view returns the caller-facing copy of an indexed record. The read path
// hands out views instead of the internal record: the XML string stays
// authoritative (strings are immutable), while the DOM cache is NOT
// shared — a caller that parses and then mutates its copy's tree cannot
// corrupt the type index or the next snapshot, which is exactly what
// happened when Get returned the live record (the aliasing bug). The
// copy's Doc() re-parses on first use; hot readers memoize what they
// derive and revalidate it with KindGeneration.
func (r *Record) view() *Record {
	return &Record{Kind: r.Kind, Key: r.Key, XML: r.XML}
}

// Durability selects when a logged write is fsynced.
type Durability int

const (
	// DurabilityOS leaves flushing to the OS write-back cache: fastest,
	// and a crash can lose the write-back window (Open's default, the v1
	// behavior).
	DurabilityOS Durability = iota
	// DurabilityGroup fsyncs once per commit batch: every acknowledged
	// write is on stable storage, and N concurrent writers share one
	// flush (OpenDurable's default).
	DurabilityGroup
	// DurabilityEveryOp fsyncs after every single op: the v1 OpenDurable
	// behavior, kept as the group-commit A/B baseline (EXT-12).
	DurabilityEveryOp
)

// Options tunes a WAL-backed store opened with OpenWithOptions.
type Options struct {
	// Backend selects the persistence engine: BackendFSWAL (the default,
	// also chosen by "") or BackendMemory. See backend.go.
	Backend string
	// Durability is the fsync policy (default DurabilityOS).
	Durability Durability
	// MaxBatch caps how many mutations one commit batch may carry
	// (default 128).
	MaxBatch int
	// MaxDelay, when positive, holds a batch open that long waiting for
	// more writers before fsyncing (DurabilityGroup only). The default 0
	// coalesces only what queued naturally during the previous flush,
	// adding no latency.
	MaxDelay time.Duration
	// SegmentSize is the rotation threshold for log segments
	// (default 4 MiB).
	SegmentSize int64
	// FS is the filesystem hook layer; nil means the real filesystem.
	// Torture tests inject a faultinject.CrashFS here.
	FS faultinject.FS
	// OnCommit, when set, observes every committed mutation batch in log
	// order, after the batch is durably written (per the durability
	// policy) and applied to the in-memory view, but before the writers
	// are acknowledged. A non-nil return is handed to every writer in
	// the batch — their Put/Delete returns the error — WITHOUT poisoning
	// the log: the local write stands, but the caller must not treat it
	// as acknowledged. This is the synchronous-replication gate of
	// internal/cluster ("acked implies replicated"); replay during Open
	// does not invoke it.
	OnCommit func(entries []Entry) error
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 128
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.FS == nil {
		o.FS = faultinject.OSFS{}
	}
	return o
}

// Store is the document store. All methods are safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	byKey  map[string]*Record            // composite kind\x00key -> record
	byKind map[string]map[string]*Record // kind -> key -> record
	byType map[string]map[string][]*Record

	// kindGens counts committed mutations per kind (guarded by mu), so a
	// caller caching a view derived from some kinds can revalidate without
	// being thrashed by writes to unrelated kinds. See KindGeneration.
	kindGens map[string]uint64

	// path is the backend base path ("" for stores built with New).
	path string
	opts Options
	fs   faultinject.FS

	// backend is the persistence engine; nil marks a pure in-memory store
	// built with New/NewWithOptions (no committer).
	backend      Backend
	hasCommitter bool

	// Committer plumbing (see commit.go). commitCh is nil once closed;
	// closeMu serializes submission against Close. poison and closeErr
	// are owned by the committer goroutine after Open.
	commitCh chan commitReq
	closeMu  sync.RWMutex
	commitWG sync.WaitGroup
	poison   error
	closeErr error

	// ckptMu serializes checkpoints (Compact) and fences Destroy against
	// an in-flight snapshot write.
	ckptMu sync.Mutex

	// replayedFrames is how many snapshot records plus WAL frames Open
	// replayed, credited to the replay counter when instrumented.
	replayedFrames int
	metrics        atomic.Pointer[storeMetrics]

	// gen counts committed mutations (Put/Delete), letting callers cache
	// derived views (e.g. a party loaded from the store) and revalidate
	// with a single atomic load instead of re-reading every document.
	// WAL replay during Open does not bump it: generation 0 plus N
	// replayed frames is still one consistent snapshot.
	gen atomic.Uint64
}

// Generation returns the store's mutation counter. It changes on every
// successful Put or Delete, so two equal readings with the same Store
// bracket an interval in which no document changed.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// KindGeneration returns the sum of the per-kind mutation counters for
// kinds. It changes on every successful Put or Delete touching one of
// those kinds and is stable across writes to every other kind — the
// revalidation token for caches scoped to a subset of the store (a
// resume-ticket write must not thrash a memoized party built from
// credentials, policies and ontologies). Like Generation, replay during
// Open does not bump it.
func (s *Store) KindGeneration(kinds ...string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sum uint64
	for _, k := range kinds {
		sum += s.kindGens[k]
	}
	return sum
}

// ErrNotFound is returned by Get and Delete for missing records.
var ErrNotFound = errors.New("store: record not found")

// New creates an in-memory store with no durability.
func New() *Store {
	return &Store{
		byKey:    make(map[string]*Record),
		byKind:   make(map[string]map[string]*Record),
		byType:   make(map[string]map[string][]*Record),
		kindGens: make(map[string]uint64),
	}
}

// NewWithOptions creates an in-memory store honouring the subset of
// Options that applies without a WAL (currently OnCommit). Cluster
// tests replicate from memory-backed leaders through this.
func NewWithOptions(opts Options) *Store {
	s := New()
	s.opts = opts
	return s
}

// Open creates (or reopens) a WAL-backed store at path. Existing state is
// recovered (snapshot, then segment replay); a torn final frame is
// truncated away. Writes are logged but fsync is left to the OS.
func Open(path string) (*Store, error) {
	return OpenWithOptions(path, Options{})
}

// OpenDurable is Open with synchronous durability: every Put/Delete is on
// stable storage before it returns. Concurrent writers share one fsync
// per commit batch (group commit), so this no longer costs one flush per
// write as it did in v1.
func OpenDurable(path string) (*Store, error) {
	return OpenWithOptions(path, Options{Durability: DurabilityGroup})
}

// OpenWithOptions opens a backend-backed store with explicit tuning:
// construct the selected backend, recover its persisted state into the
// in-memory view, then start the group-commit committer.
func OpenWithOptions(path string, opts Options) (*Store, error) {
	s := New()
	s.path = path
	s.opts = opts.withDefaults()
	s.fs = s.opts.FS
	b, err := s.newBackend(path)
	if err != nil {
		return nil, err
	}
	if err := b.Recover(s.applyReplay); err != nil {
		return nil, err
	}
	s.backend = b
	s.hasCommitter = true
	s.commitCh = make(chan commitReq, 4*s.opts.MaxBatch)
	s.commitWG.Add(1)
	go s.committer(s.commitCh)
	return s, nil
}

// applyReplay applies recovered entries to the in-memory maps.
func (s *Store) applyReplay(entries []walEntry, source string) error {
	for _, e := range entries {
		switch e.op {
		case opPut:
			rec := &Record{Kind: e.kind, Key: e.key, XML: e.doc}
			if _, err := rec.Doc(); err != nil {
				// Documents were validated before being logged; a parse
				// failure here means on-disk corruption that crc32 did
				// not catch. Surface it.
				return fmt.Errorf("store: replay %s from %s: %w", composite(e.kind, e.key), source, err)
			}
			s.applyRecord(rec)
		case opDelete:
			s.applyDelete(e.kind, e.key)
		}
		s.replayedFrames++
	}
	return nil
}

// Close stops the committer (draining queued writes), seals the backend
// and releases its handles. The in-memory view stays readable but further
// writes fail with ErrWALClosed. Concurrent and repeated Closes are safe:
// every call waits until the committer has fully shut down, so when any
// Close returns, no goroutine is still writing to the backend — the fence
// Destroy relies on. (Previously a second Close returned immediately
// while the first was still draining, and a Destroy sequenced after it
// could unlink segments the committer was mid-write on.)
func (s *Store) Close() error {
	s.closeMu.Lock() //lint:allow nakedlock must release before commitWG.Wait, or the committer deadlocks
	ch := s.commitCh
	s.commitCh = nil
	s.closeMu.Unlock()
	if ch != nil {
		close(ch)
	}
	// Always wait, even when another Close already took the channel: the
	// WaitGroup is a no-op for in-memory stores and otherwise blocks until
	// the committer has sealed the backend.
	s.commitWG.Wait()
	return s.closeErr
}

func composite(kind, key string) string { return kind + "\x00" + key }

// Put validates, stores and (when WAL-backed) durably logs a document.
func (s *Store) Put(kind, key string, doc *xmldom.Node) error {
	if kind == "" || key == "" {
		return errors.New("store: kind and key required")
	}
	if strings.ContainsRune(kind, 0) || strings.ContainsRune(key, 0) {
		return errors.New("store: kind and key must not contain NUL")
	}
	rec := &Record{Kind: kind, Key: key, XML: doc.XML()}
	if _, err := rec.Doc(); err != nil {
		return err
	}
	if !s.hasCommitter {
		s.mu.Lock() //lint:allow nakedlock commitHook below must run outside the lock (it may do I/O)
		s.applyRecord(rec)
		s.gen.Add(1)
		s.kindGens[kind]++
		s.met().records.Set(int64(len(s.byKey)))
		s.mu.Unlock()
		return s.commitHook([]Entry{{Op: OpPut, Kind: kind, Key: key, Doc: rec.XML}})
	}
	res := s.submit(commitReq{
		kind:  ckPut,
		entry: walEntry{op: opPut, kind: kind, key: key, doc: rec.XML},
		rec:   rec,
		done:  make(chan commitResult, 1),
	})
	return res.err
}

// PutXML stores a pre-serialized document after validating it parses.
func (s *Store) PutXML(kind, key, xml string) error {
	doc, err := xmldom.ParseString(xml)
	if err != nil {
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	return s.Put(kind, key, doc)
}

// applyRecord inserts into the in-memory maps. Caller holds s.mu (write).
func (s *Store) applyRecord(rec *Record) {
	ck := composite(rec.Kind, rec.Key)
	if old, exists := s.byKey[ck]; exists {
		s.removeFromTypeIndex(old)
	}
	s.byKey[ck] = rec
	km := s.byKind[rec.Kind]
	if km == nil {
		km = make(map[string]*Record)
		s.byKind[rec.Kind] = km
	}
	km[rec.Key] = rec
	if ta := rec.TypeAttr(); ta != "" {
		tm := s.byType[rec.Kind]
		if tm == nil {
			tm = make(map[string][]*Record)
			s.byType[rec.Kind] = tm
		}
		tm[ta] = append(tm[ta], rec)
	}
}

func (s *Store) removeFromTypeIndex(rec *Record) {
	ta := rec.TypeAttr()
	if ta == "" {
		return
	}
	lst := s.byType[rec.Kind][ta]
	for i, r := range lst {
		if r == rec {
			s.byType[rec.Kind][ta] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// Get returns the record stored under (kind, key). The result is the
// caller's copy: mutating its parsed document does not touch the store.
func (s *Store) Get(kind, key string) (*Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.byKey[composite(kind, key)]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, kind, key)
	}
	return rec.view(), nil
}

// Delete removes a record, durably logging the removal when WAL-backed.
func (s *Store) Delete(kind, key string) error {
	if !s.hasCommitter {
		s.mu.Lock() //lint:allow nakedlock commitHook below must run outside the lock (it may do I/O)
		if _, ok := s.byKey[composite(kind, key)]; !ok {
			s.mu.Unlock()
			return fmt.Errorf("%w: %s/%s", ErrNotFound, kind, key)
		}
		s.applyDelete(kind, key)
		s.gen.Add(1)
		s.kindGens[kind]++
		s.met().records.Set(int64(len(s.byKey)))
		s.mu.Unlock()
		return s.commitHook([]Entry{{Op: OpDelete, Kind: kind, Key: key}})
	}
	res := s.submit(commitReq{
		kind:  ckDelete,
		entry: walEntry{op: opDelete, kind: kind, key: key},
		done:  make(chan commitResult, 1),
	})
	return res.err
}

func (s *Store) applyDelete(kind, key string) {
	ck := composite(kind, key)
	rec, ok := s.byKey[ck]
	if !ok {
		return
	}
	s.removeFromTypeIndex(rec)
	delete(s.byKey, ck)
	delete(s.byKind[kind], key)
}

// List returns the records of a kind, sorted by key. The results are the
// caller's copies (see Get).
func (s *Store) List(kind string) []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	km := s.byKind[kind]
	out := make([]*Record, 0, len(km))
	for _, r := range km {
		out = append(out, r.view())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Count returns the number of records of a kind.
func (s *Store) Count(kind string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byKind[kind])
}

// ByTypeAttr returns the records of a kind whose root "type" attribute
// equals typ, using the secondary index. The results are the caller's
// copies (see Get).
func (s *Store) ByTypeAttr(kind, typ string) []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lst := s.byType[kind][typ]
	out := make([]*Record, 0, len(lst))
	for _, r := range lst {
		out = append(out, r.view())
	}
	return out
}

// listInternal snapshots the live records of a kind, sorted by key. The
// returned records are the indexed ones — internal use only, never to be
// handed to callers.
func (s *Store) listInternal(kind string) []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	km := s.byKind[kind]
	out := make([]*Record, 0, len(km))
	for _, r := range km {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Query returns the records of a kind whose document satisfies the
// XPath predicate, sorted by key. The results are the caller's copies
// (see Get); the predicate itself runs over the store's pre-parsed trees,
// so matching does not re-parse.
func (s *Store) Query(kind string, pred *xpath.Expr) ([]*Record, error) {
	recs := s.listInternal(kind)
	out := make([]*Record, 0, len(recs))
	for _, r := range recs {
		doc, err := r.Doc()
		if err != nil {
			return nil, err
		}
		if pred.Bool(doc) {
			out = append(out, r.view())
		}
	}
	return out, nil
}

// QueryString compiles expr and runs Query.
func (s *Store) QueryString(kind, expr string) ([]*Record, error) {
	e, err := xpath.Compile(expr)
	if err != nil {
		return nil, err
	}
	return s.Query(kind, e)
}

// Compact is the online checkpoint: a Rotate barrier through the
// committer captures the live record set and a checkpoint token, then the
// backend persists the snapshot and garbage-collects what it supersedes —
// all while concurrent Puts keep committing into the post-rotation log.
// The memory backend has nothing to truncate and makes this a cheap
// sweep. No-op for in-memory stores built with New.
func (s *Store) Compact() error {
	if !s.hasCommitter {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	res := s.submit(commitReq{kind: ckRotate, done: make(chan commitResult, 1)})
	if res.err != nil {
		return res.err
	}
	if err := s.backend.Snapshot(res.coverSeq, res.entries); err != nil {
		return err
	}
	s.met().compactions.Inc()
	return nil
}

// Path returns the backend base path ("" for in-memory stores).
func (s *Store) Path() string { return s.path }

// Sync forces everything logged so far to stable storage.
func (s *Store) Sync() error {
	if !s.hasCommitter {
		return nil
	}
	res := s.submit(commitReq{kind: ckSync, done: make(chan commitResult, 1)})
	return res.err
}

// Destroy closes the store and removes every file it owns. For tests.
// Close waits for the committer to shut down and ckptMu fences an
// in-flight Compact, so nothing is still writing to the files Destroy
// unlinks — the other half of the Destroy/Close race fix.
func (s *Store) Destroy() error {
	if err := s.Close(); err != nil {
		return err
	}
	if s.backend == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.backend.Destroy()
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
