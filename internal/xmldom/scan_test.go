package xmldom

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

func TestParsePredefinedEntities(t *testing.T) {
	root, err := ParseString(`<a v="&lt;&gt;&amp;&quot;&apos;" w='x &quot;y&quot;'>1 &lt; 2 &amp;&amp; &apos;3&apos; &gt; &quot;0&quot;</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.AttrOr("v", ""); got != `<>&"'` {
		t.Fatalf("v = %q", got)
	}
	if got := root.AttrOr("w", ""); got != `x "y"` {
		t.Fatalf("w = %q", got)
	}
	if got := root.Text(); got != `1 < 2 && '3' > "0"` {
		t.Fatalf("text = %q", got)
	}
}

func TestParseWhitespaceRule(t *testing.T) {
	// Whitespace-only text is indentation until the element has real
	// text; after that it is content and is kept.
	root, err := ParseString("<a>\n  <b>x</b>\n  <c> y <d/> </c>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(root.Children); n != 2 {
		t.Fatalf("root has %d children, want the two elements", n)
	}
	c := root.Child("c")
	if n := len(c.Children); n != 3 {
		t.Fatalf("<c> has %d children, want text, <d/>, text", n)
	}
	if got := c.Text(); got != " y  " {
		t.Fatalf("mixed content = %q", got)
	}
	if got := root.Child("b").Text(); got != "x" {
		t.Fatalf("<b> = %q", got)
	}
}

func TestParseCommentsAroundRoot(t *testing.T) {
	root, err := ParseString("<!--before--> <a><!--inside-->x<!--after x--></a> <!--after-->")
	if err != nil {
		t.Fatal(err)
	}
	if root.Parent != nil || root.Name != "a" {
		t.Fatalf("root = %q", root.Name)
	}
	var kinds []string
	for _, c := range root.Children {
		kinds = append(kinds, c.Type.String()+":"+c.Data)
	}
	if got := strings.Join(kinds, ","); got != "comment:inside,text:x,comment:after x" {
		t.Fatalf("children = %s", got)
	}
	if got := root.XML(); got != "<a><!--inside-->x<!--after x--></a>" {
		t.Fatalf("XML = %s", got)
	}
}

func TestParsedSlicesDoNotAlias(t *testing.T) {
	root, err := ParseString(`<r><a x="1"><t>1</t></a><b y="2"><u>2</u></b><c z="3"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := root.Child("a"), root.Child("b"), root.Child("c")
	a.AppendChild(NewElement("extra"))
	a.SetAttr("w", "9")
	c.SetAttr("zz", "4")
	root.AppendChild(NewElement("d"))
	if got := b.XML(); got != `<b y="2"><u>2</u></b>` {
		t.Fatalf("neighbour <b> changed: %s", got)
	}
	if got := c.XML(); got != `<c z="3" zz="4"/>` {
		t.Fatalf("<c> = %s", got)
	}
	if got := a.XML(); got != `<a w="9" x="1"><t>1</t><extra/></a>` {
		t.Fatalf("<a> = %s", got)
	}
	if got := root.XML(); got != `<r><a w="9" x="1"><t>1</t><extra/></a><b y="2"><u>2</u></b><c z="3" zz="4"/><d/></r>` {
		t.Fatalf("root = %s", got)
	}
}

func TestParseDoesNotAliasInput(t *testing.T) {
	const doc = `<a k="v"><b>text</b><!--c--></a>`
	for name, parse := range map[string]func([]byte) (*Node, error){
		"Parse(bytes.Reader)": func(b []byte) (*Node, error) { return Parse(bytes.NewReader(b)) },
		"ParseBytes":          ParseBytes,
		"Parse(one-byte reader)": func(b []byte) (*Node, error) {
			return Parse(iotest.OneByteReader(bytes.NewReader(b)))
		},
	} {
		buf := []byte(doc)
		root, err := parse(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'X'
		}
		if got := root.XML(); got != doc {
			t.Fatalf("%s: tree changed with its input buffer: %s", name, got)
		}
	}
}

func TestParseReaderErrorPassesThrough(t *testing.T) {
	boom := errors.New("boom")
	_, err := Parse(io.MultiReader(strings.NewReader("<a><b/>"), iotest.ErrReader(boom)))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the reader's error", err)
	}
}

// wireEnvelopes loads the TN envelopes captured from one join over HTTP.
func wireEnvelopes(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "envelope_*.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no captured envelopes: %v", err)
	}
	var docs []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(data))
	}
	return docs
}

// TestScannerTakesWireDocuments pins that canonical output and the
// captured wire envelopes stay on the fast path rather than silently
// falling back to encoding/xml.
func TestScannerTakesWireDocuments(t *testing.T) {
	docs := append(wireEnvelopes(t), randomTree([]byte("canonical output with <&> text")).XML())
	for _, d := range docs {
		root, ok := scan(d)
		if !ok {
			t.Fatalf("scanner declined %q", d)
		}
		if got := root.XML(); got != d {
			t.Fatalf("canonical round trip:\n got %s\nwant %s", got, d)
		}
	}
}

// TestParseConcurrent shares the pooled scanner scratch across
// goroutines; run under -race it checks that no two parses share it.
func TestParseConcurrent(t *testing.T) {
	docs := wireEnvelopes(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := docs[(g+i)%len(docs)]
				root, err := ParseString(d)
				if err != nil {
					t.Error(err)
					return
				}
				if got := root.XML(); got != d {
					t.Errorf("round trip:\n got %s\nwant %s", got, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkParseEnvelope(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("testdata", "envelope_5.xml"))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseBytes(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-xml", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decode(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
