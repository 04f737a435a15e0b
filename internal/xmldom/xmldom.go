// Package xmldom provides a small document object model for XML.
//
// The Trust-X stack stores credentials, disclosure policies and ontologies
// as XML documents and evaluates XPath conditions against them (paper §6.2:
// each <certCond> element stores an XPath expression over the counterpart
// credential). encoding/xml only offers struct mapping and token streams,
// so this package builds the node tree that the XPath evaluator
// (internal/xpath) walks.
//
// The model is deliberately compact: elements, attributes, text and
// comments. Namespace prefixes are preserved verbatim in names (the X-TNL
// formats in the paper are prefix-free), and documents round-trip through
// Parse and (*Node).XML in canonical form — attributes sorted by name,
// no insignificant whitespace — which is also the form that gets signed
// by internal/pki.
package xmldom

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// NodeType discriminates the kinds of nodes in a document tree.
type NodeType int

const (
	// ElementNode is an XML element with a name, attributes and children.
	ElementNode NodeType = iota
	// TextNode holds character data.
	TextNode
	// CommentNode holds an XML comment.
	CommentNode
)

func (t NodeType) String() string {
	switch t {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Attr is a single name="value" attribute on an element.
type Attr struct {
	Name  string
	Value string
}

// Node is a node in a parsed XML document. The zero value is an empty
// element with no name; use NewElement or Parse to build trees.
type Node struct {
	Type     NodeType
	Name     string // element name (ElementNode only)
	Data     string // character data (TextNode, CommentNode)
	Attrs    []Attr
	Children []*Node
	Parent   *Node
}

// NewElement returns a new element node with the given name.
func NewElement(name string) *Node {
	return &Node{Type: ElementNode, Name: name}
}

// NewText returns a new text node holding data.
func NewText(data string) *Node {
	return &Node{Type: TextNode, Data: data}
}

// AppendChild adds c as the last child of n and sets c.Parent.
// It returns n to permit chaining.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return n
}

// SetAttr sets (or replaces) the named attribute and returns n.
func (n *Node) SetAttr(name, value string) *Node {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute's value, or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// Text returns the concatenated character data of n and all descendants,
// in document order. This matches the XPath string-value of an element.
func (n *Node) Text() string {
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	switch n.Type {
	case TextNode:
		b.WriteString(n.Data)
	case ElementNode:
		for _, c := range n.Children {
			c.appendText(b)
		}
	}
}

// Elements returns the element children of n, in document order.
func (n *Node) Elements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// Child returns the first element child named name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Type == ElementNode && c.Name == name {
			return c
		}
	}
	return nil
}

// ChildText returns the string-value of the first element child named
// name, or "" when there is no such child.
func (n *Node) ChildText(name string) string {
	if c := n.Child(name); c != nil {
		return c.Text()
	}
	return ""
}

// Childs returns all element children named name, in document order.
func (n *Node) Childs(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode && c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Walk visits n and every descendant in document order. If fn returns
// false the walk stops.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of n with a nil Parent.
func (n *Node) Clone() *Node {
	cp := &Node{Type: n.Type, Name: n.Name, Data: n.Data}
	if len(n.Attrs) > 0 {
		cp.Attrs = make([]Attr, len(n.Attrs))
		copy(cp.Attrs, n.Attrs)
	}
	for _, c := range n.Children {
		cp.AppendChild(c.Clone())
	}
	return cp
}

// Root returns the topmost ancestor of n (n itself if parentless).
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// ErrNoRoot is returned by Parse when the input holds no root element.
var ErrNoRoot = errors.New("xmldom: document has no root element")

// Parse reads an XML document from r and returns its root element.
// Character data consisting entirely of whitespace between elements is
// dropped; mixed content keeps its text verbatim. Comments are preserved.
//
// The document is read whole and scanned in a single pass (see
// scan.go); documents outside the scanner's subset, and every malformed
// document, go through encoding/xml instead, which reports the error.
func Parse(r io.Reader) (*Node, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		// Replay what was read, then the same error, through the
		// decoder, so a failing reader reports what it always did.
		return decode(io.MultiReader(bytes.NewReader(data), errReader{err}))
	}
	return ParseBytes(data)
}

// ParseString is Parse over a string. The tree's names, attribute
// values and entity-free text share s's memory.
func ParseString(s string) (*Node, error) {
	return parse(s)
}

// ParseBytes is Parse over a byte slice. The tree does not alias b, so
// the caller may reuse the buffer once ParseBytes returns.
func ParseBytes(b []byte) (*Node, error) {
	return parse(string(b))
}

func parse(s string) (*Node, error) {
	if root, ok := scan(s); ok {
		return root, nil
	}
	return decode(strings.NewReader(s))
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decode builds the tree with encoding/xml's token loop. It handles
// everything the scanner declines, and is the only source of parse
// errors.
func decode(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var cur *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldom: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := NewElement(qname(t.Name))
			for _, a := range t.Attr {
				// xmlns declarations are carried through as plain
				// attributes so serialized output stays faithful.
				el.Attrs = append(el.Attrs, Attr{Name: qname(a.Name), Value: a.Value})
			}
			if cur == nil {
				if root != nil {
					return nil, errors.New("xmldom: multiple root elements")
				}
				root = el
			} else {
				cur.AppendChild(el)
			}
			cur = el
		case xml.EndElement:
			if cur == nil {
				return nil, errors.New("xmldom: unbalanced end element")
			}
			cur = cur.Parent
		case xml.CharData:
			if cur == nil {
				continue // prolog whitespace
			}
			s := string(t)
			if strings.TrimSpace(s) == "" && !hasTextChildren(cur) {
				// Indentation between elements; drop it so that
				// pretty-printed and compact documents compare equal.
				continue
			}
			cur.AppendChild(NewText(s))
		case xml.Comment:
			if cur != nil {
				cur.AppendChild(&Node{Type: CommentNode, Data: string(t)})
			}
		case xml.ProcInst, xml.Directive:
			// Prolog; not modelled.
		}
	}
	if cur != nil {
		return nil, errors.New("xmldom: unexpected EOF inside element " + cur.Name)
	}
	if root == nil {
		return nil, ErrNoRoot
	}
	return root, nil
}

func hasTextChildren(n *Node) bool {
	for _, c := range n.Children {
		if c.Type == TextNode && strings.TrimSpace(c.Data) != "" {
			return true
		}
	}
	return false
}

func qname(n xml.Name) string {
	// encoding/xml resolves prefixes to namespace URLs in Name.Space.
	// The X-TNL documents in the paper are prefix-free; when a namespace
	// does appear we keep it in Clark notation so names stay unambiguous.
	if n.Space == "" {
		return n.Local
	}
	return "{" + n.Space + "}" + n.Local
}

// xmlBufPool recycles serialization buffers across XML calls. Encoding
// is the per-message hot path of the wsrpc envelope plumbing (every
// request, reply and replay-cache entry serializes a tree), so buffer
// growth churn is worth avoiding; only the final string copy allocates.
var xmlBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps the capacity of buffers returned to the pool, so
// one huge document doesn't pin its buffer for the process lifetime.
const maxPooledBuf = 1 << 16

// XML serializes the subtree rooted at n in canonical form: attributes
// sorted by name, text escaped, no added whitespace. The output of XML is
// what internal/pki signs, so two structurally equal documents always
// produce identical bytes.
func (n *Node) XML() string {
	b := xmlBufPool.Get().(*bytes.Buffer)
	b.Reset()
	n.writeXML(b)
	s := b.String()
	if b.Cap() <= maxPooledBuf {
		xmlBufPool.Put(b)
	}
	return s
}

// attrOrder appends to dst the indexes of n.Attrs in name order (stable
// among equal names). Callers pass a 16-entry stack array, so ordering
// attributes set out of name order allocates nothing up to that count.
func (n *Node) attrOrder(dst []int) []int {
	for i := range n.Attrs {
		j := len(dst)
		dst = append(dst, i)
		for ; j > 0 && n.Attrs[dst[j-1]].Name > n.Attrs[i].Name; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = i
	}
	return dst
}

func (n *Node) writeXML(b *bytes.Buffer) {
	switch n.Type {
	case TextNode:
		textEscaper.WriteString(b, n.Data)
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Name)
		var order [16]int
		for _, i := range n.attrOrder(order[:0]) {
			a := &n.Attrs[i]
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			attrEscaper.WriteString(b, a.Value)
			b.WriteByte('"')
		}
		if len(n.Children) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		for _, c := range n.Children {
			c.writeXML(b)
		}
		b.WriteString("</")
		b.WriteString(n.Name)
		b.WriteByte('>')
	}
}

// Indented serializes the subtree with two-space indentation, for human
// consumption (the cmd/xtnl formatter and example output). Text content
// is kept inline when an element has only text children.
func (n *Node) Indented() string {
	var b strings.Builder
	n.writeIndented(&b, 0)
	b.WriteByte('\n')
	return b.String()
}

func (n *Node) writeIndented(b *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	switch n.Type {
	case TextNode:
		b.WriteString(ind)
		b.WriteString(escapeText(strings.TrimSpace(n.Data)))
	case CommentNode:
		b.WriteString(ind)
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case ElementNode:
		b.WriteString(ind)
		b.WriteByte('<')
		b.WriteString(n.Name)
		var order [16]int
		for _, i := range n.attrOrder(order[:0]) {
			a := &n.Attrs[i]
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			b.WriteString(escapeAttr(a.Value))
			b.WriteByte('"')
		}
		if len(n.Children) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		if onlyText(n) {
			b.WriteString(escapeText(n.Text()))
			b.WriteString("</")
			b.WriteString(n.Name)
			b.WriteByte('>')
			return
		}
		for _, c := range n.Children {
			b.WriteByte('\n')
			c.writeIndented(b, depth+1)
		}
		b.WriteByte('\n')
		b.WriteString(ind)
		b.WriteString("</")
		b.WriteString(n.Name)
		b.WriteByte('>')
	}
}

func onlyText(n *Node) bool {
	for _, c := range n.Children {
		if c.Type != TextNode {
			return false
		}
	}
	return len(n.Children) > 0
}

// Shared escapers: building a strings.Replacer per call allocated on
// every text and attribute write; Replacer is safe for concurrent use.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

func escapeText(s string) string { return textEscaper.Replace(s) }

func escapeAttr(s string) string { return attrEscaper.Replace(s) }

// Equal reports whether two subtrees are structurally identical:
// same node types, names, attribute sets and (whitespace-trimmed for
// pure-text elements) character data.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.XML() == b.XML()
}
