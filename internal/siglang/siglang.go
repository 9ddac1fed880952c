// Package siglang implements the intermediate signature language of
// Extractocol (paper Fig. 4). Signatures conservatively describe the set of
// strings a program slice can produce (request URIs, query strings, text
// bodies) or the structure it consumes (JSON/XML response bodies).
//
// The grammar, as in the paper:
//
//	sig_pat ::= term | concat(term, term) | rep{term} | term ∨ term
//	term    ::= constant | struct_str | unknown
//	struct  ::= json(obj) | xml(obj)
//	obj     ::= (key, value)*            key ::= constant
//	value   ::= constant | obj | array
//
// Signatures render to regular expressions (repetition → Kleene star,
// disjunction → |, typed unknowns → [0-9]+ or .*), to a JSON-schema-like
// form for JSON trees, and to DTDs for XML trees.
//
// Signatures are values: nothing writes a node that another signature, an
// environment or a report can reach, so trees are shared without copies.
// Merge and MergeObj write neither operand. The only writers are
// constructors filling a node they just allocated, and (*Obj).Put and
// PutDyn on a tree their caller still owns.
package siglang

import (
	"bytes"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// VType is the inferred value type of an unknown term, used to pick the
// wildcard class when rendering regular expressions.
type VType uint8

// Value types.
const (
	VAny VType = iota
	VString
	VInt
	VBool
)

// String returns a short name for the value type.
func (v VType) String() string {
	switch v {
	case VString:
		return "string"
	case VInt:
		return "int"
	case VBool:
		return "bool"
	default:
		return "any"
	}
}

// Sig is a node in the signature language.
type Sig interface {
	isSig()
}

// Lit is a constant term (string or numeric literal).
type Lit struct {
	Val string
	Num bool // literal is numeric
}

// Unknown is a wildcard term carrying its inferred type, and optionally the
// name of the program object it came from (diagnostics only).
type Unknown struct {
	Type   VType
	Origin string
}

// Concat is ordered concatenation of sub-signatures.
type Concat struct{ Parts []Sig }

// Rep marks a part that may repeat zero or more times (loop-variant parts).
type Rep struct{ Body Sig }

// Or is a disjunction of alternatives from different control-flow paths.
type Or struct{ Alts []Sig }

// KV is one key/value pair of a structured object. Keys are constants per
// the grammar; a dynamically generated key is represented by Dyn=true.
type KV struct {
	Key string
	Dyn bool // key is dynamically generated (wildcard key)
	Val Sig
}

// Obj is an ordered sequence of key/value pairs.
type Obj struct{ Pairs []KV }

// Arr is an array value; Open marks arrays whose length is unbounded
// (loop-built arrays).
type Arr struct {
	Elems []Sig
	Open  bool
}

// JSON is a structured string carrying a JSON tree.
type JSON struct{ Root Sig }

// XML is a structured string carrying an XML element tree.
type XML struct{ Root *Elem }

// Elem is an XML element with attributes and children.
type Elem struct {
	Tag      string
	Attrs    []KV
	Children []*Elem
	Text     Sig // nil when no text content is modeled
}

func (*Lit) isSig()     {}
func (*Unknown) isSig() {}
func (*Concat) isSig()  {}
func (*Rep) isSig()     {}
func (*Or) isSig()      {}
func (*Obj) isSig()     {}
func (*Arr) isSig()     {}
func (*JSON) isSig()    {}
func (*XML) isSig()     {}

// Str returns a string literal signature.
func Str(s string) *Lit { return &Lit{Val: s} }

// Num returns a numeric literal signature.
func Num(s string) *Lit { return &Lit{Val: s, Num: true} }

// Any returns an untyped unknown.
func Any() *Unknown { return &Unknown{Type: VAny} }

// AnyString returns a string-typed unknown.
func AnyString() *Unknown { return &Unknown{Type: VString} }

// AnyInt returns an integer-typed unknown.
func AnyInt() *Unknown { return &Unknown{Type: VInt} }

// Cat concatenates signatures, flattening nested concatenations and merging
// adjacent literals.
func Cat(parts ...Sig) Sig {
	var flat []Sig
	for _, p := range parts {
		if p == nil {
			continue
		}
		if c, ok := p.(*Concat); ok {
			flat = append(flat, c.Parts...)
		} else {
			flat = append(flat, p)
		}
	}
	var out []Sig
	for _, p := range flat {
		if l, ok := p.(*Lit); ok && len(out) > 0 {
			if pl, ok2 := out[len(out)-1].(*Lit); ok2 && !pl.Num && !l.Num {
				out[len(out)-1] = Str(pl.Val + l.Val)
				continue
			}
		}
		out = append(out, p)
	}
	switch len(out) {
	case 0:
		return Str("")
	case 1:
		return out[0]
	}
	return &Concat{Parts: out}
}

// Disjoin merges alternatives into a disjunction, flattening nested Or
// nodes and deduplicating structurally equal alternatives. A nil
// alternative is ignored; if all are nil it returns nil.
func Disjoin(alts ...Sig) Sig {
	var flat []Sig
	for _, a := range alts {
		if a == nil {
			continue
		}
		if o, ok := a.(*Or); ok {
			flat = append(flat, o.Alts...)
		} else {
			flat = append(flat, a)
		}
	}
	var out []Sig
	for _, a := range flat {
		dup := false
		for _, b := range out {
			if Equal(a, b) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, a)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return &Or{Alts: out}
}

// Repeat wraps s in a repetition marker, collapsing nested repetition.
func Repeat(s Sig) Sig {
	if r, ok := s.(*Rep); ok {
		return r
	}
	return &Rep{Body: s}
}

// Equal reports structural equality of two signatures: equal canonical
// forms, rendered into stack buffers.
func Equal(a, b Sig) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a == b {
		return true
	}
	var ab, bb [128]byte
	return bytes.Equal(AppendCanon(ab[:0], a), AppendCanon(bb[:0], b))
}

// Canon returns the canonical textual form, usable as a map key.
func Canon(s Sig) string {
	var buf [128]byte
	return string(AppendCanon(buf[:0], s))
}

// AppendCanon appends the canonical textual form of s to b: the grammar's
// notation, with string literals and object keys quoted as strconv.Quote
// quotes them. Parse reads it back.
func AppendCanon(b []byte, s Sig) []byte { return appendCanon(b, s) }

// appendCanon renders a signature, or an XML element passed as an *Elem.
// Elements are rendered here, not by a function of their own, because the
// compiler moves a caller's buffer to the heap when two functions that
// each call themselves also call each other; Equal and core's transaction
// keys render into stack buffers.
func appendCanon(b []byte, n any) []byte {
	switch v := n.(type) {
	case nil:
		return append(b, "<nil>"...)
	case *Lit:
		if !v.Num {
			return strconv.AppendQuote(b, v.Val)
		}
		b = append(b, "num("...)
		b = append(b, v.Val...)
		return append(b, ')')
	case *Unknown:
		b = append(b, '?')
		return append(b, v.Type.String()...)
	case *Concat:
		b = append(b, "concat("...)
		for i, p := range v.Parts {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendCanon(b, p)
		}
		return append(b, ')')
	case *Rep:
		b = append(b, "rep{"...)
		b = appendCanon(b, v.Body)
		return append(b, '}')
	case *Or:
		b = append(b, '(')
		for i, a := range v.Alts {
			if i > 0 {
				b = append(b, " ∨ "...)
			}
			b = appendCanon(b, a)
		}
		return append(b, ')')
	case *Obj:
		b = append(b, "obj{"...)
		for i, kv := range v.Pairs {
			if i > 0 {
				b = append(b, ", "...)
			}
			if kv.Dyn {
				b = append(b, "?key"...)
			} else {
				b = strconv.AppendQuote(b, kv.Key)
			}
			b = append(b, ": "...)
			b = appendCanonOrAny(b, kv.Val)
		}
		return append(b, '}')
	case *Arr:
		b = append(b, "array["...)
		for i, e := range v.Elems {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendCanon(b, e)
		}
		if v.Open {
			b = append(b, "..."...)
		}
		return append(b, ']')
	case *JSON:
		b = append(b, "json("...)
		b = appendCanonOrAny(b, v.Root)
		return append(b, ')')
	case *XML:
		b = append(b, "xml("...)
		b = appendCanon(b, v.Root)
		return append(b, ')')
	case *Elem:
		if v == nil {
			return append(b, "?elem"...)
		}
		b = append(b, '<')
		b = append(b, v.Tag...)
		for _, a := range v.Attrs {
			b = append(b, ' ')
			b = append(b, a.Key...)
			b = append(b, '=')
			b = appendCanonOrAny(b, a.Val)
		}
		b = append(b, '>')
		for _, c := range v.Children {
			b = appendCanon(b, c)
		}
		if v.Text != nil {
			b = appendCanon(b, v.Text)
		}
		b = append(b, "</"...)
		b = append(b, v.Tag...)
		return append(b, '>')
	}
	return b
}

// appendCanonOrAny renders a missing value, object value or JSON root, as
// the wildcard it stands for.
func appendCanonOrAny(b []byte, s Sig) []byte {
	if s == nil {
		return append(b, "?any"...)
	}
	return appendCanon(b, s)
}

// ---- Object helpers ----

// Put sets key to val, replacing an existing pair with the same key; when
// the key already holds a different signature the values are disjoined,
// mirroring JSONObject.put on divergent paths. It writes o in place, so it
// is for building a tree the caller still owns.
func (o *Obj) Put(key string, val Sig) {
	for i := range o.Pairs {
		if !o.Pairs[i].Dyn && o.Pairs[i].Key == key {
			if !Equal(o.Pairs[i].Val, val) {
				o.Pairs[i].Val = Disjoin(o.Pairs[i].Val, val)
			}
			return
		}
	}
	o.Pairs = append(o.Pairs, KV{Key: key, Val: val})
}

// PutDyn appends a dynamically keyed pair, in place like Put.
func (o *Obj) PutDyn(val Sig) {
	o.Pairs = append(o.Pairs, KV{Dyn: true, Val: val})
}

// Get returns the value for key, or nil.
func (o *Obj) Get(key string) Sig {
	for _, kv := range o.Pairs {
		if !kv.Dyn && kv.Key == key {
			return kv.Val
		}
	}
	return nil
}

// MergeObj returns the union of a and b (set union of keys; common keys
// disjoin values) in a new object, writing neither operand; a nil operand
// yields the other. Used at control-flow confluence points.
func MergeObj(a, b *Obj) *Obj {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	m := &Obj{Pairs: append(make([]KV, 0, len(a.Pairs)+len(b.Pairs)), a.Pairs...)}
	for _, kv := range b.Pairs {
		if kv.Dyn {
			m.PutDyn(kv.Val)
			continue
		}
		m.Put(kv.Key, kv.Val)
	}
	return m
}

// Merge combines two signatures for the same variable arriving from
// different control-flow paths (the confluence rule of §3.2): equal
// signatures collapse, JSON/object signatures merge structurally, and
// anything else becomes a disjunction. Like MergeObj, it writes neither
// operand.
func Merge(a, b Sig) Sig {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if Equal(a, b) {
		return a
	}
	if ja, ok := a.(*JSON); ok {
		if jb, ok2 := b.(*JSON); ok2 {
			oa, aok := ja.Root.(*Obj)
			ob, bok := jb.Root.(*Obj)
			if aok && bok {
				return &JSON{Root: MergeObj(oa, ob)}
			}
		}
	}
	if oa, ok := a.(*Obj); ok {
		if ob, ok2 := b.(*Obj); ok2 {
			return MergeObj(oa, ob)
		}
	}
	return Disjoin(a, b)
}

// ---- Keyword extraction ----

// Keywords returns the constant keywords carried by a signature: JSON keys,
// XML tags and attribute names, and query-string keys in literal text
// (substrings of the form "key=" or "&key="), sorted and without
// duplicates. The paper counts these to quantify signature quality
// (Fig. 7).
func Keywords(s Sig) []string { return AppendKeywords(nil, s) }

// AppendKeywords appends the keywords of s to dst, sorted and without
// duplicates, and leaves dst's own elements as they are.
func AppendKeywords(dst []string, s Sig) []string {
	n := len(dst)
	dst = collectKeywords(dst, s)
	kw := dst[n:]
	slices.Sort(kw)
	return dst[:n+len(slices.Compact(kw))]
}

func collectKeywords(dst []string, s Sig) []string {
	switch v := s.(type) {
	case *Lit:
		dst = appendQueryKeys(dst, v.Val)
	case *Concat:
		for _, p := range v.Parts {
			dst = collectKeywords(dst, p)
		}
	case *Rep:
		dst = collectKeywords(dst, v.Body)
	case *Or:
		for _, a := range v.Alts {
			dst = collectKeywords(dst, a)
		}
	case *Obj:
		for _, kv := range v.Pairs {
			if !kv.Dyn {
				dst = append(dst, kv.Key)
			}
			dst = collectKeywords(dst, kv.Val)
		}
	case *Arr:
		for _, e := range v.Elems {
			dst = collectKeywords(dst, e)
		}
	case *JSON:
		dst = collectKeywords(dst, v.Root)
	case *XML:
		dst = collectElemKeywords(dst, v.Root)
	}
	return dst
}

func collectElemKeywords(dst []string, e *Elem) []string {
	if e == nil {
		return dst
	}
	dst = append(dst, e.Tag)
	for _, a := range e.Attrs {
		dst = append(dst, a.Key)
		dst = collectKeywords(dst, a.Val)
	}
	for _, c := range e.Children {
		dst = collectElemKeywords(dst, c)
	}
	return collectKeywords(dst, e.Text)
}

// appendQueryKeys appends the query-string style keys of a literal
// fragment ("a=1&b=2" → a, b). A fragment like "count=" contributes
// "count".
func appendQueryKeys(dst []string, s string) []string {
	i := 0
	for i < len(s) {
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			break
		}
		j += i
		// Walk back to the start of the key.
		k := j
		for k > 0 && isKeyByte(s[k-1]) {
			k--
		}
		if k < j {
			dst = append(dst, s[k:j])
		}
		i = j + 1
	}
	return dst
}

func isKeyByte(b byte) bool {
	return b == '_' || b == '-' || b == '.' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

// ---- Regex rendering ----

// Regex renders the signature as an anchored regular expression string.
func Regex(s Sig) string {
	var buf [128]byte
	return string(AppendRegex(buf[:0], s))
}

// Compile renders and compiles the signature's regular expression.
func Compile(s Sig) (*regexp.Regexp, error) {
	return regexp.Compile(Regex(s))
}

// RegexBody renders the un-anchored regular expression fragment.
func RegexBody(s Sig) string {
	var buf [128]byte
	return string(AppendRegexBody(buf[:0], s))
}

// AppendRegex appends the anchored regular expression of s to b.
func AppendRegex(b []byte, s Sig) []byte {
	b = append(b, '^')
	b = AppendRegexBody(b, s)
	return append(b, '$')
}

// AppendRegexBody appends the un-anchored regular expression fragment of
// s to b: literals with their metacharacters escaped as regexp.QuoteMeta
// escapes them, typed unknowns as their wildcard class, repetition as a
// starred group and disjunction as an alternation group.
func AppendRegexBody(b []byte, s Sig) []byte {
	switch v := s.(type) {
	case nil:
		b = append(b, ".*"...)
	case *Lit:
		b = appendQuoteMeta(b, v.Val)
	case *Unknown:
		switch v.Type {
		case VInt:
			b = append(b, "[0-9]+"...)
		case VBool:
			b = append(b, "(?:true|false)"...)
		default:
			b = append(b, ".*"...)
		}
	case *Concat:
		for _, p := range v.Parts {
			b = AppendRegexBody(b, p)
		}
	case *Rep:
		b = append(b, "(?:"...)
		b = AppendRegexBody(b, v.Body)
		b = append(b, ")*"...)
	case *Or:
		b = append(b, "(?:"...)
		for i, a := range v.Alts {
			if i > 0 {
				b = append(b, '|')
			}
			b = AppendRegexBody(b, a)
		}
		b = append(b, ')')
	case *JSON, *Obj, *Arr, *XML:
		// Structured strings embedded in text positions match loosely;
		// structural bodies are matched by the JSON and XML matchers instead.
		b = append(b, ".*"...)
	}
	return b
}

// appendQuoteMeta appends s with a backslash before each byte that
// regexp.QuoteMeta escapes.
func appendQuoteMeta(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(`\.+*?()|[]{}^$`, s[i]) >= 0 {
			b = append(b, s[start:i]...)
			b = append(b, '\\')
			start = i
		}
	}
	return append(b, s[start:]...)
}
