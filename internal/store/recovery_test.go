package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// tornFixture builds a multi-frame segment image and its frame boundary
// offsets: boundaries[i] is the byte offset where frame i ends, so the
// state after replaying an image cut at offset c must be exactly the
// frames wholly below c.
func tornFixture(t *testing.T, n int) (pristine []byte, boundaries []int) {
	t.Helper()
	var buf []byte
	boundaries = []int{}
	for i := 0; i < n; i++ {
		var err error
		buf, err = appendFrame(buf, walEntry{op: opPut, kind: "doc", key: fmt.Sprintf("k%d", i), doc: fmt.Sprintf(`<d n="%d"/>`, i)})
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, len(buf))
	}
	return buf, boundaries
}

// framesBelow returns how many frames end at or before offset c.
func framesBelow(boundaries []int, c int) int {
	n := 0
	for _, b := range boundaries {
		if b <= c {
			n++
		}
	}
	return n
}

// checkRecovered opens base and asserts exactly the first want frames
// are visible, with their exact documents.
func checkRecovered(t *testing.T, base string, want int, context string) {
	t.Helper()
	s, err := Open(base)
	if err != nil {
		t.Fatalf("%s: open must never fail on a damaged tail: %v", context, err)
	}
	defer s.Close()
	if got := s.Count("doc"); got != want {
		t.Fatalf("%s: recovered %d records, want %d", context, got, want)
	}
	for i := 0; i < want; i++ {
		rec, err := s.Get("doc", fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("%s: committed record k%d lost: %v", context, i, err)
		}
		if wantDoc := fmt.Sprintf(`<d n="%d"/>`, i); rec.XML != wantDoc {
			t.Fatalf("%s: k%d corrupted: %q", context, i, rec.XML)
		}
	}
}

// TestExhaustiveTornTail truncates a segment at EVERY byte offset and
// separately flips EVERY byte: recovery must always succeed and always
// yield exactly the committed prefix (frames before the damage).
func TestExhaustiveTornTail(t *testing.T) {
	pristine, boundaries := tornFixture(t, 5)

	for cut := 0; cut <= len(pristine); cut++ {
		base := filepath.Join(t.TempDir(), "t.wal")
		if err := os.WriteFile(segmentPath(base, 1), pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		checkRecovered(t, base, framesBelow(boundaries, cut), fmt.Sprintf("truncate@%d", cut))
	}

	for flip := 0; flip < len(pristine); flip++ {
		base := filepath.Join(t.TempDir(), "t.wal")
		img := append([]byte(nil), pristine...)
		img[flip] ^= 0xFF
		if err := os.WriteFile(segmentPath(base, 1), img, 0o644); err != nil {
			t.Fatal(err)
		}
		// The CRC (or magic/length check) rejects the frame containing the
		// flipped byte; replay keeps everything before it and distrusts
		// everything after.
		want := framesBelow(boundaries, flip)
		checkRecovered(t, base, want, fmt.Sprintf("flip@%d", flip))
	}
}

// TestCompactConcurrentPuts checkpoints repeatedly while writers commit —
// the online-checkpoint claim, meant to run under -race. Every
// acknowledged write must survive the churn and a reopen.
func TestCompactConcurrentPuts(t *testing.T) {
	base := filepath.Join(t.TempDir(), "t.wal")
	s, err := OpenWithOptions(base, Options{Durability: DurabilityGroup, SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	counts := make([]int, writers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.PutXML("doc", fmt.Sprintf("w%d-%d", w, i), fmt.Sprintf(`<d n="%d"/>`, i)); err != nil {
					t.Errorf("writer %d: put %d: %v", w, i, err)
					return
				}
				counts[w] = i + 1
			}
		}()
	}
	for i := 0; i < 8; i++ {
		if err := s.Compact(); err != nil {
			t.Fatalf("compact %d under write load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	total := 0
	for w, n := range counts {
		total += n
		if n == 0 {
			t.Fatalf("writer %d never committed; test proves nothing", w)
		}
		for i := 0; i < n; i++ {
			if _, err := re.Get("doc", fmt.Sprintf("w%d-%d", w, i)); err != nil {
				t.Fatalf("acked write w%d-%d lost across compaction: %v", w, i, err)
			}
		}
	}
	if got := re.Count("doc"); got < total {
		t.Fatalf("recovered %d records, acked %d", got, total)
	}
}

// TestLegacyV1Migration: a v1 single-file WAL (frames straight at the
// base path, no segments, no snapshot) must open under the v2 engine,
// and the first checkpoint must retire the legacy file.
func TestLegacyV1Migration(t *testing.T) {
	base := filepath.Join(t.TempDir(), "legacy.wal")
	var buf []byte
	for _, e := range []walEntry{
		{op: opPut, kind: "cred", key: "a", doc: `<c n="1"/>`},
		{op: opPut, kind: "cred", key: "b", doc: `<c n="2"/>`},
		{op: opPut, kind: "cred", key: "a", doc: `<c n="3"/>`}, // overwrite
		{op: opDelete, kind: "cred", key: "b"},
		{op: opPut, kind: "pol", key: "p", doc: `<p/>`},
	} {
		var err error
		if buf, err = appendFrame(buf, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(base, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(base)
	if err != nil {
		t.Fatalf("open v1 WAL under v2 engine: %v", err)
	}
	rec, err := s.Get("cred", "a")
	if err != nil || rec.XML != `<c n="3"/>` {
		t.Fatalf("v1 replay: a = %v, %v", rec, err)
	}
	if _, err := s.Get("cred", "b"); err == nil {
		t.Fatal("v1 replay resurrected deleted record b")
	}
	if err := s.PutXML("cred", "c", `<c n="4"/>`); err != nil {
		t.Fatalf("write to migrated store: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint owns the legacy file's contents now.
	if _, err := os.Stat(base); !os.IsNotExist(err) {
		t.Fatalf("legacy v1 file survived first checkpoint: %v", err)
	}
	if _, err := os.Stat(snapshotPath(base)); err != nil {
		t.Fatalf("checkpoint snapshot missing: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count("cred") != 2 || re.Count("pol") != 1 {
		t.Fatalf("post-migration counts: cred=%d pol=%d", re.Count("cred"), re.Count("pol"))
	}
}

// TestLegacyV1TornTail: a v1 file with a torn final frame (the crash mode
// the v1 engine itself tolerated) still recovers its committed prefix.
func TestLegacyV1TornTail(t *testing.T) {
	base := filepath.Join(t.TempDir(), "legacy.wal")
	var buf []byte
	var err error
	if buf, err = appendFrame(buf, walEntry{op: opPut, kind: "doc", key: "k0", doc: `<d n="0"/>`}); err != nil {
		t.Fatal(err)
	}
	if buf, err = appendFrame(buf, walEntry{op: opPut, kind: "doc", key: "k1", doc: `<d n="1"/>`}); err != nil {
		t.Fatal(err)
	}
	buf = append(buf, walMagic[0], walMagic[1], byte(opPut), 0) // torn header
	if err := os.WriteFile(base, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, base, 2, "legacy torn tail")
}
