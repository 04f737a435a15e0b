package store

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"trustvo/internal/xmldom"
)

// Read-path aliasing regression tests. Get/List/Query/ByTypeAttr used to
// return the store's live *Record — whose lazily-parsed *xmldom.Node is
// the live index the XPath queries run over — so a caller mutating a
// returned record's document (or XML field) silently corrupted the
// store for every later reader. The read path now returns defensive
// views; these tests mutate what they are handed and assert the store is
// unaffected. Against the old read path they fail.

// TestGetReturnsDefensiveCopy mutates both the XML field and the parsed
// document of a Get result.
func TestGetReturnsDefensiveCopy(t *testing.T) {
	s := New()
	const orig = `<credential type="ISOCert"><f v="1"/></credential>`
	if err := s.PutXML("cred", "a", orig); err != nil {
		t.Fatal(err)
	}
	want := mustGetXML(t, s, "cred", "a")

	rec, err := s.Get("cred", "a")
	if err != nil {
		t.Fatal(err)
	}
	rec.XML = `<poisoned/>`
	doc, err := rec.Doc()
	if err != nil {
		t.Fatal(err)
	}
	doc.SetAttr("type", "Forged")

	if got := mustGetXML(t, s, "cred", "a"); got != want {
		t.Fatalf("store mutated through a Get result:\n got: %s\nwant: %s", got, want)
	}
	// The typed index still sees the original type attribute.
	if recs := s.ByTypeAttr("cred", "ISOCert"); len(recs) != 1 {
		t.Fatalf("ByTypeAttr(ISOCert) = %d records after aliased mutation, want 1", len(recs))
	}
	if recs := s.ByTypeAttr("cred", "Forged"); len(recs) != 0 {
		t.Fatal("mutation of a returned record leaked into the type index")
	}
}

// TestListAndByTypeAttrReturnDefensiveCopies does the same through the
// bulk read paths, including a fresh reader's parse being unaffected.
func TestListAndByTypeAttrReturnDefensiveCopies(t *testing.T) {
	s := New()
	if err := s.PutXML("cred", "a", `<credential type="ISOCert"/>`); err != nil {
		t.Fatal(err)
	}
	want := mustGetXML(t, s, "cred", "a")

	for _, recs := range [][]*Record{s.List("cred"), s.ByTypeAttr("cred", "ISOCert")} {
		if len(recs) != 1 {
			t.Fatalf("read returned %d records, want 1", len(recs))
		}
		doc, err := recs[0].Doc()
		if err != nil {
			t.Fatal(err)
		}
		doc.SetAttr("type", "Forged")
		recs[0].XML = "<junk/>"
	}
	if got := mustGetXML(t, s, "cred", "a"); got != want {
		t.Fatalf("store mutated through a bulk read:\n got: %s\nwant: %s", got, want)
	}
	// A fresh read parses from the pristine XML, not the mutated DOM.
	fresh, err := s.Get("cred", "a")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := fresh.Doc()
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.AttrOr("type", ""); got != "ISOCert" {
		t.Fatalf("fresh read sees mutated document: type=%q", got)
	}
}

// TestQueryReturnsDefensiveCopies covers the XPath read path.
func TestQueryReturnsDefensiveCopies(t *testing.T) {
	s := New()
	if err := s.PutXML("cred", "a", `<credential type="ISOCert"><issuer>CA</issuer></credential>`); err != nil {
		t.Fatal(err)
	}
	recs, err := s.QueryString("cred", `//issuer[text()="CA"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("query = %d records, want 1", len(recs))
	}
	doc, err := recs[0].Doc()
	if err != nil {
		t.Fatal(err)
	}
	doc.Child("issuer").SetAttr("forged", "yes").AppendChild(&xmldom.Node{Name: "evil"})

	again, err := s.QueryString("cred", `//issuer[@forged="yes"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatal("mutation of a query result leaked into the queried index")
	}
}

func mustGetXML(t *testing.T, s *Store, kind, key string) string {
	t.Helper()
	rec, err := s.Get(kind, key)
	if err != nil {
		t.Fatal(err)
	}
	return rec.XML
}

// TestDestroyCloseRace is the regression test for the shutdown race:
// Destroy (and a bare Close) used to return while the committer goroutine
// could still be flushing, so Destroy could race file removal against an
// in-flight segment append or snapshot write. Close now always waits for
// the committer to exit, and Destroy additionally fences on the
// checkpoint mutex. Run under -race with writers and a checkpoint in
// flight while Destroy fires.
func TestDestroyCloseRace(t *testing.T) {
	for _, backend := range durableBackends {
		backend := backend
		t.Run("backend="+backend, func(t *testing.T) {
			for iter := 0; iter < 20; iter++ {
				base := filepath.Join(t.TempDir(), "t.wal")
				s, err := OpenWithOptions(base, Options{
					Backend: backend, Durability: DurabilityGroup, SegmentSize: tortureSegmentSize,
				})
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				start := make(chan struct{})
				for w := 0; w < 4; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for i := 0; ; i++ {
							if err := s.PutXML("doc", keyFor(w, i), `<d pad="xxxxxxxxxxxxxxxx"/>`); err != nil {
								// ErrWALClosed (or poison after it) is the only
								// legal failure once Destroy has begun.
								if !errors.Is(err, ErrWALClosed) {
									t.Errorf("writer %d: %v", w, err)
								}
								return
							}
						}
					}()
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					s.Compact() // may lose the race to Destroy; error is fine
				}()
				close(start)
				if err := s.Destroy(); err != nil {
					t.Fatalf("destroy under load: %v", err)
				}
				wg.Wait()
			}
		})
	}
}

func keyFor(w, i int) string { return string(rune('a'+w)) + "-" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}
