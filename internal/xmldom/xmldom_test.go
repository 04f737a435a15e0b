package xmldom

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	root, err := ParseString(`<credential type="ISO9000"><issuer>INFN</issuer></credential>`)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != "credential" {
		t.Fatalf("root name = %q, want credential", root.Name)
	}
	if got := root.AttrOr("type", ""); got != "ISO9000" {
		t.Fatalf("type attr = %q", got)
	}
	if got := root.ChildText("issuer"); got != "INFN" {
		t.Fatalf("issuer = %q", got)
	}
}

func TestParseDropsInterElementWhitespace(t *testing.T) {
	pretty := "<a>\n  <b>x</b>\n  <c/>\n</a>"
	compact := "<a><b>x</b><c/></a>"
	p, err := ParseString(pretty)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseString(compact)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(p, c) {
		t.Fatalf("pretty and compact forms differ:\n%s\n%s", p.XML(), c.XML())
	}
}

func TestParseKeepsMixedContent(t *testing.T) {
	root, err := ParseString(`<p>hello <b>bold</b> world</p>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Text(); got != "hello bold world" {
		t.Fatalf("Text() = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`<a><b></a>`,
		`<a></a><b></b>`,
		`<a>`,
		`plain text`,
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestXMLCanonicalAttributeOrder(t *testing.T) {
	a, _ := ParseString(`<x b="2" a="1"/>`)
	b, _ := ParseString(`<x a="1" b="2"/>`)
	if a.XML() != b.XML() {
		t.Fatalf("attribute order leaked into canonical form: %q vs %q", a.XML(), b.XML())
	}
	if want := `<x a="1" b="2"/>`; a.XML() != want {
		t.Fatalf("canonical = %q, want %q", a.XML(), want)
	}
}

// TestUnsortedAttributesSerialize covers elements whose attributes were
// set out of name order, below and above the 16 ordered on the stack:
// output is in name order, the node keeps its own order, and ordering
// costs no allocation.
func TestUnsortedAttributesSerialize(t *testing.T) {
	for _, n := range []int{2, 16, 17, 40} {
		e := NewElement("m")
		var want strings.Builder
		want.WriteString("<m")
		for i := n - 1; i >= 0; i-- {
			e.SetAttr(fmt.Sprintf("a%02d", i), fmt.Sprintf("v%d&", i))
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&want, ` a%02d="v%d&amp;"`, i, i)
		}
		want.WriteString("/>")
		if got := e.XML(); got != want.String() {
			t.Fatalf("%d attributes: XML() = %s, want %s", n, got, want.String())
		}
		if got := e.Indented(); got != want.String()+"\n" {
			t.Fatalf("%d attributes: Indented() = %s, want %s", n, got, want.String())
		}
		if e.Attrs[0].Name != fmt.Sprintf("a%02d", n-1) {
			t.Fatalf("%d attributes: serializing reordered the node", n)
		}
	}
	sorted := NewElement("tn").SetAttr("from", "A").SetAttr("type", "start")
	unsorted := NewElement("tn").SetAttr("type", "start").SetAttr("from", "A")
	if sorted.XML() != unsorted.XML() {
		t.Fatalf("%s != %s", sorted.XML(), unsorted.XML())
	}
	if a, b := testing.AllocsPerRun(50, func() { sorted.XML() }),
		testing.AllocsPerRun(50, func() { unsorted.XML() }); a != b {
		t.Fatalf("XML() allocates %.0f times for sorted attributes, %.0f for unsorted", a, b)
	}
}

func TestEscaping(t *testing.T) {
	n := NewElement("e").SetAttr("a", `v"<&`)
	n.AppendChild(NewText("x < y & z"))
	out := n.XML()
	re, err := ParseString(out)
	if err != nil {
		t.Fatalf("round trip parse of %q: %v", out, err)
	}
	if got, _ := re.Attr("a"); got != `v"<&` {
		t.Fatalf("attr round trip = %q", got)
	}
	if got := re.Text(); got != "x < y & z" {
		t.Fatalf("text round trip = %q", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig, _ := ParseString(`<a x="1"><b>t</b></a>`)
	cp := orig.Clone()
	cp.SetAttr("x", "2")
	cp.Child("b").Children[0].Data = "changed"
	if got := orig.AttrOr("x", ""); got != "1" {
		t.Fatalf("clone mutation leaked into original attr: %q", got)
	}
	if got := orig.ChildText("b"); got != "t" {
		t.Fatalf("clone mutation leaked into original text: %q", got)
	}
	if cp.Parent != nil {
		t.Fatal("clone should have nil parent")
	}
}

func TestChildHelpers(t *testing.T) {
	root, _ := ParseString(`<r><c i="1"/><d/><c i="2"/></r>`)
	if n := root.Child("c"); n == nil || n.AttrOr("i", "") != "1" {
		t.Fatal("Child should return first match")
	}
	if got := len(root.Childs("c")); got != 2 {
		t.Fatalf("Childs(c) = %d, want 2", got)
	}
	if root.Child("zzz") != nil {
		t.Fatal("Child of missing name should be nil")
	}
	if got := len(root.Elements()); got != 3 {
		t.Fatalf("Elements = %d, want 3", got)
	}
}

func TestWalkOrderAndStop(t *testing.T) {
	root, _ := ParseString(`<a><b><c/></b><d/></a>`)
	var names []string
	root.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			names = append(names, n.Name)
		}
		return true
	})
	if got := strings.Join(names, ""); got != "abcd" {
		t.Fatalf("walk order = %q, want abcd", got)
	}
	count := 0
	root.Walk(func(n *Node) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("walk did not stop: visited %d", count)
	}
}

func TestRootAndParentLinks(t *testing.T) {
	root, _ := ParseString(`<a><b><c/></b></a>`)
	c := root.Child("b").Child("c")
	if c.Root() != root {
		t.Fatal("Root() should reach document root")
	}
	if c.Parent.Name != "b" {
		t.Fatalf("parent link broken: %q", c.Parent.Name)
	}
}

func TestCommentsPreserved(t *testing.T) {
	root, err := ParseString(`<a><!--note--><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(root.XML(), "<!--note-->") {
		t.Fatalf("comment lost: %s", root.XML())
	}
}

func TestIndentedRoundTrips(t *testing.T) {
	root, _ := ParseString(`<credential type="t"><header><issuer>INFN</issuer></header><content><q>UNI EN ISO 9000</q></content></credential>`)
	pretty := root.Indented()
	re, err := ParseString(pretty)
	if err != nil {
		t.Fatalf("re-parse of indented output: %v\n%s", err, pretty)
	}
	if !Equal(root, re) {
		t.Fatalf("indented form not equivalent:\n%s\nvs\n%s", root.XML(), re.XML())
	}
}

// randomTree builds a deterministic pseudo-random tree from a seed slice,
// used for the round-trip property below.
func randomTree(seed []byte) *Node {
	root := NewElement("r")
	cur := root
	for i, b := range seed {
		switch b % 5 {
		case 0:
			child := NewElement("e" + string(rune('a'+int(b%26))))
			cur.AppendChild(child)
			cur = child
		case 1:
			if cur.Parent != nil {
				cur = cur.Parent
			}
		case 2:
			cur.SetAttr("a"+string(rune('a'+int(b%26))), string(rune('0'+i%10)))
		case 3:
			cur.AppendChild(NewText("t<&>" + string(rune('a'+int(b%26)))))
		case 4:
			cur.AppendChild(&Node{Type: CommentNode, Data: "c"})
		}
	}
	return root
}

func TestQuickSerializeParseRoundTrip(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) > 64 {
			seed = seed[:64]
		}
		tree := randomTree(seed)
		out := tree.XML()
		re, err := ParseString(out)
		if err != nil {
			t.Logf("parse error on %q: %v", out, err)
			return false
		}
		return Equal(tree, re)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTextOfNestedElements(t *testing.T) {
	root, _ := ParseString(`<a><b>x</b><c><d>y</d>z</c></a>`)
	if got := root.Text(); got != "xyz" {
		t.Fatalf("Text = %q, want xyz", got)
	}
}

func TestSetAttrReplaces(t *testing.T) {
	n := NewElement("e").SetAttr("k", "1").SetAttr("k", "2")
	if len(n.Attrs) != 1 || n.Attrs[0].Value != "2" {
		t.Fatalf("SetAttr did not replace: %+v", n.Attrs)
	}
}

func TestNamespacedNamesUseClarkNotation(t *testing.T) {
	root, err := ParseString(`<owl:Class xmlns:owl="http://www.w3.org/2002/07/owl#" rdf:ID="gender" xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != "{http://www.w3.org/2002/07/owl#}Class" {
		t.Fatalf("namespaced element name = %q", root.Name)
	}
	if v, ok := root.Attr("{http://www.w3.org/1999/02/22-rdf-syntax-ns#}ID"); !ok || v != "gender" {
		t.Fatalf("namespaced attribute = %q %v", v, ok)
	}
}
