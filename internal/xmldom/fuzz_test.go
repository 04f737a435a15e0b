package xmldom

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseMatchesEncodingXML checks the scanner against the
// encoding/xml loop it stands in for: on every input both fail with the
// same error, or both return the same tree.
func FuzzParseMatchesEncodingXML(f *testing.F) {
	for _, dir := range []string{filepath.Join("..", "..", "testdata"), "testdata"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.xml"))
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(data))
		}
	}
	for _, s := range []string{
		// the TestParseErrors cases
		``, `<a><b></a>`, `<a></a><b></b>`, `<a>`, `plain text`,
		// the edges of the scanner's subset
		`<a x='1' y="&lt;&amp;&gt;&quot;&apos;">t &amp; u</a>`,
		`<!--c--><a><!--d-->x<!--e--> <b/> </a><!--f-->`,
		"<a>\n <b>x</b>\n</a>\n",
		`<a>x]]>y</a>`, `<a>x]]&gt;</a>`, `<a><![CDATA[x]]></a>`, `<a>&#65;</a>`,
		`<a>&unknown;</a>`, `<a>&amp</a>`, "<a>x\r\ny</a>", "<a b=\"1\tx\"/>",
		`<p:a xmlns:p="u"/>`, `<a xmlns="u"><b/></a>`, `<?xml version="1.0"?><a/>`,
		`<!DOCTYPE a><a/>`, `<a b="1"c="2"/>`, `<a b = "1" ></a >`, `<a><!-- x -- y --></a>`,
		"<a> <b/></a>", "<a>\xff</a>", "<a>\x01</a>", `<a/>trailing`, `<1a/>`,
		`<a.b-c_d/>`, `<_/>`, `<a b="1" b="2"/>`, `<a/ >`, `<a b=1/>`, `<a></b>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, werr := decode(strings.NewReader(s))
		for name, parse := range map[string]func(string) (*Node, error){
			"ParseString": ParseString,
			"ParseBytes":  func(s string) (*Node, error) { return ParseBytes([]byte(s)) },
			"Parse":       func(s string) (*Node, error) { return Parse(bytes.NewReader([]byte(s))) },
		} {
			got, gerr := parse(s)
			if werr != nil || gerr != nil {
				if fmt.Sprint(werr) != fmt.Sprint(gerr) {
					t.Fatalf("%s(%q): error %v, encoding/xml %v", name, s, gerr, werr)
				}
				continue
			}
			if err := sameTree(got, want); err != nil {
				t.Fatalf("%s(%q): %v", name, s, err)
			}
		}
	})
}

// sameTree compares two trees field by field, including the order of
// attributes and children and every Parent link.
func sameTree(a, b *Node) error {
	if a.Parent != nil || b.Parent != nil {
		return fmt.Errorf("root has a parent")
	}
	return sameNode(a, b, "/")
}

func sameNode(a, b *Node, path string) error {
	if a.Type != b.Type || a.Name != b.Name || a.Data != b.Data {
		return fmt.Errorf("%s: node %v %q %q, want %v %q %q", path, a.Type, a.Name, a.Data, b.Type, b.Name, b.Data)
	}
	if len(a.Attrs) != len(b.Attrs) {
		return fmt.Errorf("%s: attrs %v, want %v", path, a.Attrs, b.Attrs)
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return fmt.Errorf("%s: attrs %v, want %v", path, a.Attrs, b.Attrs)
		}
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Errorf("%s: %d children, want %d", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		ca, cb := a.Children[i], b.Children[i]
		p := fmt.Sprintf("%s%d:%s/", path, i, cb.Name)
		if ca.Parent != a || cb.Parent != b {
			return fmt.Errorf("%s: broken parent link", p)
		}
		if err := sameNode(ca, cb, p); err != nil {
			return err
		}
	}
	return nil
}
