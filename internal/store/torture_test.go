package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"trustvo/internal/faultinject"
)

// Crash-point torture harness. A fixed workload runs against a store
// whose every file operation goes through a faultinject.CrashFS; the
// harness kills the engine at EVERY file-operation index the clean run
// performs, materializes a legal post-crash disk image, reopens with the
// real filesystem and checks the two durability invariants:
//
//   - every acknowledged write survives (no lost acks), and
//   - every unacknowledged write either vanished or is the single
//     in-flight operation the crash interrupted (no phantoms).

// tortureStep is one workload action.
type tortureStep struct {
	op   string // "put", "del", "compact", "sync"
	kind string
	key  string
	doc  string
}

// tortureSchedule exercises puts, overwrites, deletes, forced segment
// rotations (via a tiny SegmentSize) and online checkpoints.
func tortureSchedule() []tortureStep {
	var steps []tortureStep
	for i := 0; i < 6; i++ {
		steps = append(steps, tortureStep{op: "put", kind: "cred", key: fmt.Sprintf("c%d", i), doc: fmt.Sprintf(`<c n="%d"/>`, i)})
	}
	steps = append(steps,
		tortureStep{op: "sync"},
		tortureStep{op: "del", kind: "cred", key: "c3"},
		tortureStep{op: "put", kind: "pol", key: "p0", doc: `<p v="0"/>`},
		tortureStep{op: "compact"},
		tortureStep{op: "put", kind: "cred", key: "c1", doc: `<c n="1" u="y"/>`}, // overwrite
		tortureStep{op: "del", kind: "cred", key: "c0"},
		tortureStep{op: "put", kind: "pol", key: "p1", doc: `<p v="1"/>`},
		tortureStep{op: "put", kind: "pol", key: "p2", doc: `<p v="2"/>`},
		tortureStep{op: "compact"},
		tortureStep{op: "put", kind: "cred", key: "c6", doc: `<c n="6"/>`},
		tortureStep{op: "del", kind: "pol", key: "p0"},
		tortureStep{op: "put", kind: "cred", key: "c7", doc: `<c n="7"/>`},
	)
	return steps
}

// tortureState is the logical store content: composite key -> doc XML.
type tortureState map[string]string

func (st tortureState) clone() tortureState {
	out := make(tortureState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

func statesEqual(a, b tortureState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// prefixStates returns the logical state after each prefix of the
// schedule's put/del operations: prefix[i] is the state once i logical
// ops have been applied. Compact and sync do not change logical state.
func prefixStates(steps []tortureStep) []tortureState {
	states := []tortureState{{}}
	cur := tortureState{}
	for _, s := range steps {
		switch s.op {
		case "put":
			cur = cur.clone()
			cur[composite(s.kind, s.key)] = s.doc
			states = append(states, cur)
		case "del":
			cur = cur.clone()
			delete(cur, composite(s.kind, s.key))
			states = append(states, cur)
		}
	}
	return states
}

// runSteps applies the schedule until the first error (the simulated
// process stops when its storage dies). It returns how many logical ops
// were acknowledged and how many were attempted (acked, or acked+1 when
// the failing step was itself a put/del whose frame may be in flight).
func runSteps(s *Store, steps []tortureStep) (acked, attempted int) {
	for _, step := range steps {
		var err error
		logical := false
		switch step.op {
		case "put":
			logical = true
			err = s.PutXML(step.kind, step.key, step.doc)
		case "del":
			logical = true
			err = s.Delete(step.kind, step.key)
		case "compact":
			err = s.Compact()
		case "sync":
			err = s.Sync()
		}
		if err != nil {
			if logical {
				return acked, acked + 1
			}
			return acked, acked
		}
		if logical {
			acked++
		}
	}
	return acked, acked
}

// storeState reads the reopened store's logical content.
func storeState(s *Store, kinds ...string) tortureState {
	out := tortureState{}
	for _, kind := range kinds {
		for _, r := range s.List(kind) {
			out[composite(r.Kind, r.Key)] = r.XML
		}
	}
	return out
}

const tortureSegmentSize = 192 // tiny: forces rotation every few frames

// durableBackends lists the backends that participate in the crash-image
// sweeps. BackendMemory is deliberately absent: it keeps no bytes on
// disk, so the durability-only assertions do not apply to it — its leg of
// the matrix (TestCrashTortureSweep/memory) instead checks that the same
// schedule runs cleanly and that a reopen starts empty.
var durableBackends = []string{BackendFSWAL}

// countCleanOps runs the schedule with no crash point and returns the
// total file-operation count — the crash-point space to sweep.
func countCleanOps(t *testing.T, backend string, d Durability) int {
	t.Helper()
	cfs := faultinject.NewCrashFS()
	s, err := OpenWithOptions(filepath.Join(t.TempDir(), "t.wal"), Options{
		Backend: backend, Durability: d, SegmentSize: tortureSegmentSize, FS: cfs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acked, _ := runSteps(s, tortureSchedule()); acked == 0 {
		t.Fatal("clean run acknowledged nothing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return cfs.Ops()
}

// runCrashCase kills the engine at file operation crashAt, reopens from
// the keepTail crash image and checks the durability invariants.
func runCrashCase(t *testing.T, backend string, d Durability, crashAt int, keepTail float64) {
	t.Helper()
	steps := tortureSchedule()
	prefixes := prefixStates(steps)
	base := filepath.Join(t.TempDir(), "t.wal")
	cfs := faultinject.NewCrashFS()
	cfs.CrashAt = crashAt

	acked, attempted := 0, 0
	s, err := OpenWithOptions(base, Options{Backend: backend, Durability: d, SegmentSize: tortureSegmentSize, FS: cfs})
	if err == nil {
		acked, attempted = runSteps(s, steps)
		s.Close() // the crash may fire here too; descriptors are released regardless
	} else if !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("crashAt=%d: open failed with non-crash error: %v", crashAt, err)
	}
	if err := cfs.CrashImage(keepTail); err != nil {
		t.Fatal(err)
	}

	re, err := OpenWithOptions(base, Options{Backend: backend})
	if err != nil {
		t.Fatalf("crashAt=%d keepTail=%v: reopen after crash: %v", crashAt, keepTail, err)
	}
	defer re.Close()
	got := storeState(re, "cred", "pol")

	want := prefixes[acked]
	if keepTail == 0 {
		// Adversarial image: exactly the acknowledged state — acked writes
		// survived, the in-flight one (never fsynced, so only in the page
		// cache) vanished.
		if !statesEqual(got, want) {
			t.Fatalf("crashAt=%d keepTail=0 (backend=%s durability=%d): state diverged\n got: %v\nwant: %v",
				crashAt, backend, d, got, want)
		}
		return
	}
	// Lucky write-back: the in-flight (unacknowledged) operation may also have reached disk whole, or its
	// frame may be torn and discarded. Both adjacent prefix states are
	// legal; anything else is corruption.
	if statesEqual(got, want) {
		return
	}
	if attempted > acked && statesEqual(got, prefixes[attempted]) {
		return
	}
	t.Fatalf("crashAt=%d keepTail=%v (backend=%s durability=%d): state matches no legal prefix\n   got: %v\n acked: %v",
		crashAt, keepTail, backend, d, got, want)
}

func TestCrashTortureSweep(t *testing.T) {
	for _, backend := range durableBackends {
		backend := backend
		for _, d := range []Durability{DurabilityGroup, DurabilityEveryOp} {
			d := d
			t.Run(fmt.Sprintf("backend=%s/durability=%d", backend, d), func(t *testing.T) {
				ops := countCleanOps(t, backend, d)
				if ops < 40 {
					t.Fatalf("schedule too small to be interesting: %d file ops", ops)
				}
				stride := 1
				if testing.Short() {
					stride = 5
				}
				for crashAt := 1; crashAt <= ops; crashAt += stride {
					runCrashCase(t, backend, d, crashAt, 0)
					runCrashCase(t, backend, d, crashAt, 1)
					if crashAt%5 == 0 {
						// Partial write-back: tears the in-flight frame.
						runCrashCase(t, backend, d, crashAt, 0.5)
					}
				}
			})
		}
	}

	// The memory backend's leg: EXEMPT from the durability-only
	// assertions above (it keeps nothing on disk by design). The same
	// schedule must still run cleanly through the full group-commit
	// machinery, the live state must match the schedule, and a "reopen"
	// of the same path must start empty — memory loss is the contract,
	// not a bug.
	t.Run("backend=memory", func(t *testing.T) {
		steps := tortureSchedule()
		prefixes := prefixStates(steps)
		base := filepath.Join(t.TempDir(), "t.wal")
		s, err := OpenWithOptions(base, Options{Backend: BackendMemory, Durability: DurabilityGroup})
		if err != nil {
			t.Fatal(err)
		}
		acked, attempted := runSteps(s, steps)
		if acked != attempted || acked != len(prefixes)-1 {
			t.Fatalf("memory backend rejected schedule ops: acked=%d attempted=%d", acked, attempted)
		}
		if got := storeState(s, "cred", "pol"); !statesEqual(got, prefixes[acked]) {
			t.Fatalf("live state diverged\n got: %v\nwant: %v", got, prefixes[acked])
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenWithOptions(base, Options{Backend: BackendMemory})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := storeState(re, "cred", "pol"); len(got) != 0 {
			t.Fatalf("memory backend persisted %d records across reopen", len(got))
		}
	})
}

// TestCrashTortureConcurrent crashes the engine under concurrent group
// committers, once per durable backend. Keys are distinct per write, so
// the invariants are set-shaped: every acknowledged key survives with its
// exact document, and every recovered key is one the workload actually
// wrote.
func TestCrashTortureConcurrent(t *testing.T) {
	for _, backend := range durableBackends {
		backend := backend
		t.Run("backend="+backend, func(t *testing.T) { runConcurrentTorture(t, backend) })
	}
}

func runConcurrentTorture(t *testing.T, backend string) {
	const writers, perWriter = 8, 6
	// Attributes in canonical (sorted) order so the stored XML round-trips
	// byte-identical through the serializer.
	docFor := func(w, i int) string { return fmt.Sprintf(`<d i="%d" w="%d"/>`, i, w) }

	// Learn the clean run's op count once (approximate — concurrency makes
	// it vary slightly, which only shifts where the sampled points land).
	cleanFS := faultinject.NewCrashFS()
	clean, err := OpenWithOptions(filepath.Join(t.TempDir(), "c.wal"), Options{
		Backend: backend, Durability: DurabilityGroup, SegmentSize: tortureSegmentSize, FS: cleanFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				clean.PutXML("doc", fmt.Sprintf("w%d-%d", w, i), docFor(w, i))
			}
		}()
	}
	wg.Wait()
	clean.Close()
	totalOps := cleanFS.Ops()

	for crashAt := 2; crashAt <= totalOps; crashAt += 3 {
		base := filepath.Join(t.TempDir(), "t.wal")
		cfs := faultinject.NewCrashFS()
		cfs.CrashAt = crashAt
		s, err := OpenWithOptions(base, Options{Backend: backend, Durability: DurabilityGroup, SegmentSize: tortureSegmentSize, FS: cfs})
		if err != nil {
			if errors.Is(err, faultinject.ErrCrashed) {
				continue
			}
			t.Fatal(err)
		}
		var mu sync.Mutex
		ackedKeys := map[string]string{}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					key := fmt.Sprintf("w%d-%d", w, i)
					if err := s.PutXML("doc", key, docFor(w, i)); err != nil {
						return // storage died; this writer stops
					}
					mu.Lock()
					ackedKeys[key] = docFor(w, i)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		s.Close()
		if err := cfs.CrashImage(0); err != nil {
			t.Fatal(err)
		}

		re, err := OpenWithOptions(base, Options{Backend: backend})
		if err != nil {
			t.Fatalf("crashAt=%d: reopen: %v", crashAt, err)
		}
		got := storeState(re, "doc")
		re.Close()
		for key, doc := range ackedKeys {
			if got[composite("doc", key)] != doc {
				t.Fatalf("crashAt=%d: acknowledged write %s lost or corrupt (got %q)",
					crashAt, key, got[composite("doc", key)])
			}
		}
		for ck, doc := range got {
			_, key, _ := strings.Cut(ck, "\x00")
			var w, i int
			if _, err := fmt.Sscanf(key, "w%d-%d", &w, &i); err != nil {
				t.Fatalf("crashAt=%d: phantom key %q", crashAt, key)
			}
			if doc != docFor(w, i) {
				t.Fatalf("crashAt=%d: key %s recovered with wrong doc %q", crashAt, key, doc)
			}
		}
	}
}

// TestRotateFailurePoisonsLog is the regression test for the v1
// wal.rewrite bug: when switching segments fails, the engine must fail
// the write loudly and stay failed — never keep acknowledging writes
// against a dead or unlinked file.
func TestRotateFailurePoisonsLog(t *testing.T) {
	base := filepath.Join(t.TempDir(), "t.wal")
	cfs := faultinject.NewCrashFS()
	boom := errors.New("disk full")
	armed := false
	cfs.Hook = func(op faultinject.Op) error {
		if armed && op.Kind == "create" && strings.HasSuffix(op.Path, segSuffix) {
			return boom
		}
		return nil
	}
	s, err := OpenWithOptions(base, Options{Durability: DurabilityGroup, SegmentSize: tortureSegmentSize, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutXML("k", "before", `<d n="0"/>`); err != nil {
		t.Fatal(err)
	}
	armed = true // next segment creation (the rotation) fails
	var putErr error
	for i := 0; i < 32 && putErr == nil; i++ {
		putErr = s.PutXML("k", fmt.Sprintf("fill%d", i), `<d pad="xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"/>`)
	}
	if !errors.Is(putErr, boom) {
		t.Fatalf("put across failed rotation: err = %v, want wrapped %v", putErr, boom)
	}
	// The failure is sticky: no later write may be silently acknowledged.
	if err := s.PutXML("k", "after", `<d/>`); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("put after poison: err = %v, want sticky poison error", err)
	}
	if err := s.Sync(); err == nil {
		t.Fatal("sync after poison: err = nil")
	}
	s.Close()

	// Everything acknowledged before the failure is still recoverable.
	re, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Get("k", "before"); err != nil {
		t.Fatalf("acked pre-failure write lost: %v", err)
	}
	if _, err := re.Get("k", "after"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rejected write resurrected: %v", err)
	}
}

// TestSnapshotFailureLeavesStoreUsable: a failed checkpoint is reported
// but must not poison the log — the segments it would have replaced are
// still intact, so writes keep committing and recovery still works.
func TestSnapshotFailureLeavesStoreUsable(t *testing.T) {
	base := filepath.Join(t.TempDir(), "t.wal")
	cfs := faultinject.NewCrashFS()
	boom := errors.New("rename refused")
	cfs.Hook = func(op faultinject.Op) error {
		if op.Kind == "rename" && strings.HasSuffix(op.Path, tmpSuffix) {
			return boom
		}
		return nil
	}
	s, err := OpenWithOptions(base, Options{Durability: DurabilityGroup, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.PutXML("k", fmt.Sprintf("r%d", i), `<d/>`); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); !errors.Is(err, boom) {
		t.Fatalf("compact with failing snapshot publish: err = %v, want wrapped %v", err, boom)
	}
	// The failed snapshot's tmp file was cleaned up and no snapshot exists.
	if _, err := os.Stat(snapshotTmpPath(base)); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot tmp left behind: %v", err)
	}
	if _, err := os.Stat(snapshotPath(base)); !os.IsNotExist(err) {
		t.Fatalf("snapshot published despite failed rename: %v", err)
	}
	// The store is NOT poisoned: writes continue and everything recovers.
	if err := s.PutXML("k", "post", `<d/>`); err != nil {
		t.Fatalf("put after failed compact: %v", err)
	}
	s.Close()
	re, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count("k") != 6 {
		t.Fatalf("count after failed compact + reopen = %d, want 6", re.Count("k"))
	}
}
