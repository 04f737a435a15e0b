package xmldom

import (
	"strings"
	"sync"
	"unicode/utf8"
)

// The scanner is Parse's fast path. It reads the subset of XML that
// canonical (*Node).XML output and the wsrpc wire use: prefix-free ASCII
// names, double- or single-quoted attribute values, the five predefined
// entities, comments, whitespace and UTF-8 text. It either returns
// exactly the tree the encoding/xml loop (decode) would build, or
// reports !ok and leaves the document to decode. Everything outside the
// subset takes that exit: namespace prefixes and xmlns attributes,
// CDATA, DOCTYPE and processing instructions, numeric character
// references, CR anywhere in text or attribute values, tab or newline
// inside attribute values, non-whitespace text outside the root, and
// any syntax error. decode therefore stays the only code that reports a
// parse error, and its messages are unchanged.
//
// Allocation: names, attribute values and entity-free text are
// substrings of the source; nodes come from one slab, and every
// element's Attrs and Children are capacity-limited windows of two
// shared arenas, so a later SetAttr or AppendChild on one node
// reallocates that node's slice instead of writing into a neighbour's.
// All three are sized exactly: the source is tokenized first into pooled
// scratch, then the tree is built from the token counts.

type tokKind uint8

const (
	tokStart tokKind = iota
	tokEnd
	tokText
	tokComment
)

// token is one scanned event. Start tokens carry their attribute range
// in scanner.attrs and the number of children kept for them.
type token struct {
	kind   tokKind
	s      string // element name, or text/comment data
	a0, a1 int32
	kids   int32
}

// frame is an open element during scanning.
type frame struct {
	tok int // index of its start token
	// text records a kept non-whitespace text child; from then on
	// whitespace-only text is content, not indentation (decode's
	// hasTextChildren rule).
	text bool
}

type scanner struct {
	toks  []token
	attrs []Attr
	open  []frame
	buf   []byte // decoded character data
	nodes int
}

var scanPool = sync.Pool{New: func() any { return new(scanner) }}

// maxPooledToks caps the scratch kept in the pool, like maxPooledBuf.
const maxPooledToks = 1 << 12

// scan parses src when it lies in the scanner's subset.
func scan(src string) (*Node, bool) {
	sc := scanPool.Get().(*scanner)
	defer sc.release()
	if !sc.tokenize(src) {
		return nil, false
	}
	return sc.build(), true
}

// release clears the scratch, so the pool pins no source text, and
// returns it to the pool.
func (sc *scanner) release() {
	if cap(sc.toks) > maxPooledToks || cap(sc.attrs) > maxPooledToks || cap(sc.buf) > maxPooledBuf {
		return
	}
	clear(sc.toks)
	clear(sc.attrs)
	clear(sc.open)
	sc.toks, sc.attrs, sc.open, sc.buf = sc.toks[:0], sc.attrs[:0], sc.open[:0], sc.buf[:0]
	sc.nodes = 0
	scanPool.Put(sc)
}

// emit appends a node token as the next child of the open element.
func (sc *scanner) emit(t token) {
	if n := len(sc.open); n > 0 {
		sc.toks[sc.open[n-1].tok].kids++
	}
	sc.toks = append(sc.toks, t)
	sc.nodes++
}

func (sc *scanner) tokenize(s string) bool {
	rootDone := false
	i := 0
	for i < len(s) {
		c := s[i]
		if c != '<' {
			if len(sc.open) == 0 {
				if !isSpace(c) {
					return false
				}
				i++
				continue
			}
			j, ok := sc.text(s, i)
			if !ok {
				return false
			}
			i = j
			continue
		}
		if i+1 >= len(s) {
			return false
		}
		switch s[i+1] {
		case '/':
			if len(sc.open) == 0 {
				return false
			}
			name, j := readName(s, i+2)
			j = skipSpace(s, j)
			top := sc.open[len(sc.open)-1]
			if name == "" || j >= len(s) || s[j] != '>' || name != sc.toks[top.tok].s {
				return false
			}
			sc.open = sc.open[:len(sc.open)-1]
			sc.toks = append(sc.toks, token{kind: tokEnd})
			rootDone = len(sc.open) == 0
			i = j + 1
		case '!':
			if !strings.HasPrefix(s[i:], "<!--") {
				return false
			}
			data, j, ok := comment(s, i+4)
			if !ok {
				return false
			}
			if len(sc.open) > 0 {
				sc.emit(token{kind: tokComment, s: data})
			}
			i = j
		default:
			if rootDone {
				return false // a second root element
			}
			j, ok := sc.startTag(s, i+1)
			if !ok {
				return false
			}
			i = j
			if len(sc.open) == 0 {
				rootDone = true // the root was an empty-element tag
			}
		}
	}
	return rootDone
}

// startTag scans an element's name and attributes from just after '<'
// and returns the position after the tag.
func (sc *scanner) startTag(s string, i int) (int, bool) {
	name, i := readName(s, i)
	if name == "" {
		return 0, false
	}
	a0 := len(sc.attrs)
	for {
		i = skipSpace(s, i)
		if i >= len(s) {
			return 0, false
		}
		if s[i] == '>' || s[i] == '/' {
			break
		}
		an, j := readName(s, i)
		if an == "" || an == "xmlns" {
			return 0, false
		}
		j = skipSpace(s, j)
		if j >= len(s) || s[j] != '=' {
			return 0, false
		}
		j = skipSpace(s, j+1)
		if j >= len(s) || s[j] != '"' && s[j] != '\'' {
			return 0, false
		}
		v, k, ok := sc.chars(s, j+1, s[j])
		if !ok {
			return 0, false
		}
		sc.attrs = append(sc.attrs, Attr{Name: an, Value: v})
		i = k + 1
	}
	tok := len(sc.toks)
	sc.emit(token{kind: tokStart, s: name, a0: int32(a0), a1: int32(len(sc.attrs))})
	if s[i] == '>' {
		sc.open = append(sc.open, frame{tok: tok})
		return i + 1, true
	}
	if i+1 >= len(s) || s[i+1] != '>' {
		return 0, false
	}
	sc.toks = append(sc.toks, token{kind: tokEnd})
	return i + 2, true
}

// text scans character data from i up to the next '<' and keeps it as a
// child of the open element unless it is indentation.
func (sc *scanner) text(s string, i int) (int, bool) {
	data, i, ok := sc.chars(s, i, '<')
	if !ok {
		return 0, false
	}
	top := &sc.open[len(sc.open)-1]
	if strings.TrimSpace(data) == "" {
		if !top.text {
			return i, true // indentation between elements
		}
	} else {
		top.text = true
	}
	sc.emit(token{kind: tokText, s: data})
	return i, true
}

// chars scans character data from i up to stop: '<' for text, the
// closing quote for an attribute value. It returns the data with
// entities decoded and the position of stop.
func (sc *scanner) chars(s string, i int, stop byte) (string, int, bool) {
	quoted := stop != '<'
	start := i
	decoded := false
	sc.buf = sc.buf[:0]
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c == stop:
			if decoded {
				return string(sc.buf), i, true
			}
			return s[start:i], i, true
		case c == '&':
			ent, n := entity(s[i:])
			if n == 0 {
				return "", 0, false
			}
			if !decoded {
				sc.buf = append(sc.buf, s[start:i]...)
				decoded = true
			}
			sc.buf = append(sc.buf, ent)
			i += n - 1
			continue
		case c == '<':
			return "", 0, false // inside a quoted value
		case c == '>':
			// "]]>" is an error outside CDATA; an entity resets the
			// check, and it ends in ';', never ']'.
			if !quoted && i-start >= 2 && s[i-1] == ']' && s[i-2] == ']' {
				return "", 0, false
			}
		case c < 0x20:
			// CR is normalized by decode; tab and newline are kept in
			// text but declined in attribute values.
			if quoted || c != '\t' && c != '\n' {
				return "", 0, false
			}
		case c >= utf8.RuneSelf:
			n, ok := validRune(s[i:])
			if !ok {
				return "", 0, false
			}
			if decoded {
				sc.buf = append(sc.buf, s[i:i+n]...)
			}
			i += n - 1
			continue
		}
		if decoded {
			sc.buf = append(sc.buf, c)
		}
	}
	return "", 0, false // EOF
}

// build turns the token stream into a tree with exactly sized storage.
func (sc *scanner) build() *Node {
	nodes := make([]Node, sc.nodes)
	var attrs []Attr
	if len(sc.attrs) > 0 {
		attrs = make([]Attr, len(sc.attrs))
		copy(attrs, sc.attrs)
	}
	var kids []*Node
	if sc.nodes > 1 {
		kids = make([]*Node, sc.nodes-1)
	}
	var cur *Node
	next, k := 0, 0
	for _, t := range sc.toks {
		if t.kind == tokEnd {
			cur = cur.Parent
			continue
		}
		n := &nodes[next]
		next++
		if cur != nil {
			n.Parent = cur
			cur.Children = append(cur.Children, n)
		}
		switch t.kind {
		case tokStart:
			n.Type, n.Name = ElementNode, t.s
			if t.a1 > t.a0 {
				n.Attrs = attrs[t.a0:t.a1:t.a1]
			}
			if t.kids > 0 {
				end := k + int(t.kids)
				n.Children = kids[k:k:end]
				k = end
			}
			cur = n
		case tokText:
			n.Type, n.Data = TextNode, t.s
		case tokComment:
			n.Type, n.Data = CommentNode, t.s
		}
	}
	return &nodes[0]
}

// readName reads a prefix-free ASCII name at i. It returns "" when the
// name is missing or would extend past the subset (a ':' prefix
// separator or a non-ASCII name character).
func readName(s string, i int) (string, int) {
	start := i
	if i >= len(s) || !isNameStart(s[i]) {
		return "", i
	}
	for i++; i < len(s) && isNameChar(s[i]); i++ {
	}
	if i < len(s) && (s[i] == ':' || s[i] >= utf8.RuneSelf) {
		return "", i
	}
	return s[start:i], i
}

func isNameStart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || '0' <= c && c <= '9' || c == '.' || c == '-'
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\n' || c == '\t' || c == '\r'
}

func skipSpace(s string, i int) int {
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	return i
}

// comment scans a comment body from just after "<!--". Like
// encoding/xml, the first "--" must be the start of "-->".
func comment(s string, i int) (string, int, bool) {
	p := strings.Index(s[i:], "--")
	if p < 0 || i+p+2 >= len(s) || s[i+p+2] != '>' {
		return "", 0, false
	}
	return s[i : i+p], i + p + 3, true
}

// entity decodes one of the five predefined entities at the start of s,
// returning the character and the entity's length (0 when s starts with
// anything else).
func entity(s string) (byte, int) {
	switch {
	case strings.HasPrefix(s, "&lt;"):
		return '<', 4
	case strings.HasPrefix(s, "&gt;"):
		return '>', 4
	case strings.HasPrefix(s, "&amp;"):
		return '&', 5
	case strings.HasPrefix(s, "&apos;"):
		return '\'', 6
	case strings.HasPrefix(s, "&quot;"):
		return '"', 6
	}
	return 0, 0
}

// validRune checks the multi-byte UTF-8 sequence at the start of s
// against encoding/xml's character range.
func validRune(s string) (int, bool) {
	r, n := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError && n == 1 {
		return 0, false
	}
	return n, r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}
