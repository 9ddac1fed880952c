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
	"fmt"
	"regexp"
	"sort"
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
	// write renders the canonical textual form into b.
	write(b *strings.Builder)
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

// Equal reports structural equality of two signatures.
func Equal(a, b Sig) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return Canon(a) == Canon(b)
}

// Canon returns the canonical textual form, usable as a map key.
func Canon(s Sig) string {
	if s == nil {
		return "<nil>"
	}
	var b strings.Builder
	s.write(&b)
	return b.String()
}

func (l *Lit) write(b *strings.Builder) {
	if l.Num {
		fmt.Fprintf(b, "num(%s)", l.Val)
	} else {
		fmt.Fprintf(b, "%q", l.Val)
	}
}

func (u *Unknown) write(b *strings.Builder) {
	fmt.Fprintf(b, "?%s", u.Type)
}

func (c *Concat) write(b *strings.Builder) {
	b.WriteString("concat(")
	for i, p := range c.Parts {
		if i > 0 {
			b.WriteString(", ")
		}
		p.write(b)
	}
	b.WriteString(")")
}

func (r *Rep) write(b *strings.Builder) {
	b.WriteString("rep{")
	r.Body.write(b)
	b.WriteString("}")
}

func (o *Or) write(b *strings.Builder) {
	b.WriteString("(")
	for i, a := range o.Alts {
		if i > 0 {
			b.WriteString(" ∨ ")
		}
		a.write(b)
	}
	b.WriteString(")")
}

func (o *Obj) write(b *strings.Builder) {
	b.WriteString("obj{")
	for i, kv := range o.Pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		if kv.Dyn {
			b.WriteString("?key")
		} else {
			fmt.Fprintf(b, "%q", kv.Key)
		}
		b.WriteString(": ")
		if kv.Val == nil {
			b.WriteString("?any")
		} else {
			kv.Val.write(b)
		}
	}
	b.WriteString("}")
}

func (a *Arr) write(b *strings.Builder) {
	b.WriteString("array[")
	for i, e := range a.Elems {
		if i > 0 {
			b.WriteString(", ")
		}
		e.write(b)
	}
	if a.Open {
		b.WriteString("...")
	}
	b.WriteString("]")
}

func (j *JSON) write(b *strings.Builder) {
	b.WriteString("json(")
	if j.Root == nil {
		b.WriteString("?any")
	} else {
		j.Root.write(b)
	}
	b.WriteString(")")
}

func (x *XML) write(b *strings.Builder) {
	b.WriteString("xml(")
	writeElem(b, x.Root)
	b.WriteString(")")
}

func writeElem(b *strings.Builder, e *Elem) {
	if e == nil {
		b.WriteString("?elem")
		return
	}
	fmt.Fprintf(b, "<%s", e.Tag)
	for _, a := range e.Attrs {
		fmt.Fprintf(b, " %s=", a.Key)
		if a.Val == nil {
			b.WriteString("?any")
		} else {
			a.Val.write(b)
		}
	}
	b.WriteString(">")
	for _, c := range e.Children {
		writeElem(b, c)
	}
	if e.Text != nil {
		e.Text.write(b)
	}
	fmt.Fprintf(b, "</%s>", e.Tag)
}

// String implements fmt.Stringer-style rendering for diagnostics.
func String(s Sig) string { return Canon(s) }

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

// Keys returns the constant keys in insertion order.
func (o *Obj) Keys() []string {
	var out []string
	for _, kv := range o.Pairs {
		if !kv.Dyn {
			out = append(out, kv.Key)
		}
	}
	return out
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
// (substrings of the form "key=" or "&key="). The paper counts these to
// quantify signature quality (Fig. 7).
func Keywords(s Sig) []string {
	set := map[string]bool{}
	collectKeywords(s, set)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func collectKeywords(s Sig, set map[string]bool) {
	switch v := s.(type) {
	case nil:
	case *Lit:
		for _, k := range queryKeys(v.Val) {
			set[k] = true
		}
	case *Unknown:
	case *Concat:
		for _, p := range v.Parts {
			collectKeywords(p, set)
		}
	case *Rep:
		collectKeywords(v.Body, set)
	case *Or:
		for _, a := range v.Alts {
			collectKeywords(a, set)
		}
	case *Obj:
		for _, kv := range v.Pairs {
			if !kv.Dyn {
				set[kv.Key] = true
			}
			collectKeywords(kv.Val, set)
		}
	case *Arr:
		for _, e := range v.Elems {
			collectKeywords(e, set)
		}
	case *JSON:
		collectKeywords(v.Root, set)
	case *XML:
		collectElemKeywords(v.Root, set)
	}
}

func collectElemKeywords(e *Elem, set map[string]bool) {
	if e == nil {
		return
	}
	set[e.Tag] = true
	for _, a := range e.Attrs {
		set[a.Key] = true
		collectKeywords(a.Val, set)
	}
	for _, c := range e.Children {
		collectElemKeywords(c, set)
	}
	collectKeywords(e.Text, set)
}

// queryKeys extracts query-string style keys ("a=1&b=2" → a, b) from a
// literal fragment. A fragment like "count=" contributes "count".
func queryKeys(s string) []string {
	var out []string
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
			out = append(out, s[k:j])
		}
		i = j + 1
	}
	return out
}

func isKeyByte(b byte) bool {
	return b == '_' || b == '-' || b == '.' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

// ---- Regex rendering ----

// Regex renders the signature as an anchored regular expression string.
func Regex(s Sig) string {
	var b strings.Builder
	b.WriteString("^")
	writeRegex(s, &b)
	b.WriteString("$")
	return b.String()
}

// Compile renders and compiles the signature's regular expression.
func Compile(s Sig) (*regexp.Regexp, error) {
	return regexp.Compile(Regex(s))
}

// RegexBody renders the un-anchored regular expression fragment.
func RegexBody(s Sig) string {
	var b strings.Builder
	writeRegex(s, &b)
	return b.String()
}

func writeRegex(s Sig, b *strings.Builder) {
	switch v := s.(type) {
	case nil:
		b.WriteString(".*")
	case *Lit:
		b.WriteString(regexp.QuoteMeta(v.Val))
	case *Unknown:
		switch v.Type {
		case VInt:
			b.WriteString("[0-9]+")
		case VBool:
			b.WriteString("(?:true|false)")
		default:
			b.WriteString(".*")
		}
	case *Concat:
		for _, p := range v.Parts {
			writeRegex(p, b)
		}
	case *Rep:
		b.WriteString("(?:")
		writeRegex(v.Body, b)
		b.WriteString(")*")
	case *Or:
		b.WriteString("(?:")
		for i, a := range v.Alts {
			if i > 0 {
				b.WriteString("|")
			}
			writeRegex(a, b)
		}
		b.WriteString(")")
	case *JSON, *Obj, *Arr, *XML:
		// Structured strings embedded in text positions match loosely;
		// structural bodies are matched by the JSON and XML matchers instead.
		b.WriteString(".*")
	}
}
