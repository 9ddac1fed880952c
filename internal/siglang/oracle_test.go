package siglang

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The strings.Builder renderers below are what the package rendered with
// before its renderers appended to a caller's []byte. They are the oracle
// the append renderers must equal byte for byte. The schema oracle quotes
// with appendJSONQuote, as AppendJSONSchema does since it quotes by JSON's
// rules instead of Go's %q, and decides which numeric literals are JSON
// numbers with jsonNumber, where AppendJSONSchema scans bytes. The DTD
// oracle leaves a nil child out of its element's list, as AppendDTD does.

func oracleCanon(s Sig) string {
	if s == nil {
		return "<nil>"
	}
	var b strings.Builder
	oracleWrite(s, &b)
	return b.String()
}

func oracleWrite(s Sig, b *strings.Builder) {
	switch v := s.(type) {
	case *Lit:
		if v.Num {
			fmt.Fprintf(b, "num(%s)", v.Val)
		} else {
			fmt.Fprintf(b, "%q", v.Val)
		}
	case *Unknown:
		fmt.Fprintf(b, "?%s", v.Type)
	case *Concat:
		b.WriteString("concat(")
		for i, p := range v.Parts {
			if i > 0 {
				b.WriteString(", ")
			}
			oracleWrite(p, b)
		}
		b.WriteString(")")
	case *Rep:
		b.WriteString("rep{")
		oracleWrite(v.Body, b)
		b.WriteString("}")
	case *Or:
		b.WriteString("(")
		for i, a := range v.Alts {
			if i > 0 {
				b.WriteString(" ∨ ")
			}
			oracleWrite(a, b)
		}
		b.WriteString(")")
	case *Obj:
		b.WriteString("obj{")
		for i, kv := range v.Pairs {
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
				oracleWrite(kv.Val, b)
			}
		}
		b.WriteString("}")
	case *Arr:
		b.WriteString("array[")
		for i, e := range v.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			oracleWrite(e, b)
		}
		if v.Open {
			b.WriteString("...")
		}
		b.WriteString("]")
	case *JSON:
		b.WriteString("json(")
		if v.Root == nil {
			b.WriteString("?any")
		} else {
			oracleWrite(v.Root, b)
		}
		b.WriteString(")")
	case *XML:
		b.WriteString("xml(")
		oracleWriteElem(b, v.Root)
		b.WriteString(")")
	}
}

func oracleWriteElem(b *strings.Builder, e *Elem) {
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
			oracleWrite(a.Val, b)
		}
	}
	b.WriteString(">")
	for _, c := range e.Children {
		oracleWriteElem(b, c)
	}
	if e.Text != nil {
		oracleWrite(e.Text, b)
	}
	fmt.Fprintf(b, "</%s>", e.Tag)
}

func oracleRegex(s Sig) string { return "^" + oracleRegexBody(s) + "$" }

func oracleRegexBody(s Sig) string {
	var b strings.Builder
	oracleWriteRegex(s, &b)
	return b.String()
}

func oracleWriteRegex(s Sig, b *strings.Builder) {
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
			oracleWriteRegex(p, b)
		}
	case *Rep:
		b.WriteString("(?:")
		oracleWriteRegex(v.Body, b)
		b.WriteString(")*")
	case *Or:
		b.WriteString("(?:")
		for i, a := range v.Alts {
			if i > 0 {
				b.WriteString("|")
			}
			oracleWriteRegex(a, b)
		}
		b.WriteString(")")
	case *JSON, *Obj, *Arr, *XML:
		b.WriteString(".*")
	}
}

// jsonNumber is JSON's number grammar (RFC 8259, section 6).
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

func oracleJSONSchema(s Sig) string {
	var b strings.Builder
	oracleWriteSchema(s, &b)
	return b.String()
}

func oracleWriteSchema(s Sig, b *strings.Builder) {
	switch v := s.(type) {
	case nil:
		b.WriteString(`{"type":"any"}`)
	case *JSON:
		oracleWriteSchema(v.Root, b)
	case *Lit:
		switch {
		case !v.Num:
			fmt.Fprintf(b, `{"type":"string","const":%s}`, appendJSONQuote(nil, v.Val))
		case jsonNumber.MatchString(v.Val):
			fmt.Fprintf(b, `{"type":"number","const":%s}`, v.Val)
		default:
			b.WriteString(`{"type":"number"}`)
		}
	case *Unknown:
		switch v.Type {
		case VInt:
			b.WriteString(`{"type":"number"}`)
		case VBool:
			b.WriteString(`{"type":"boolean"}`)
		case VString:
			b.WriteString(`{"type":"string"}`)
		default:
			b.WriteString(`{"type":"any"}`)
		}
	case *Obj:
		b.WriteString(`{"type":"object","properties":{`)
		first := true
		for _, kv := range v.Pairs {
			if kv.Dyn {
				continue
			}
			if !first {
				b.WriteString(",")
			}
			first = false
			fmt.Fprintf(b, "%s:", appendJSONQuote(nil, kv.Key))
			oracleWriteSchema(kv.Val, b)
		}
		b.WriteString("}")
		for _, kv := range v.Pairs {
			if kv.Dyn {
				b.WriteString(`,"additionalProperties":`)
				oracleWriteSchema(kv.Val, b)
				break
			}
		}
		b.WriteString("}")
	case *Arr:
		b.WriteString(`{"type":"array","items":`)
		var item Sig
		for _, e := range v.Elems {
			item = Merge(item, e)
		}
		oracleWriteSchema(item, b)
		b.WriteString("}")
	case *Or:
		b.WriteString(`{"anyOf":[`)
		for i, a := range v.Alts {
			if i > 0 {
				b.WriteString(",")
			}
			oracleWriteSchema(a, b)
		}
		b.WriteString("]}")
	case *Concat, *Rep:
		fmt.Fprintf(b, `{"type":"string","pattern":%s}`, appendJSONQuote(nil, oracleRegexBody(s)))
	case *XML:
		fmt.Fprintf(b, `{"type":"string","media":"text/xml"}`)
	}
}

func oracleDTD(x *XML) string {
	if x == nil || x.Root == nil {
		return ""
	}
	var b strings.Builder
	seen := map[string]bool{}
	oracleWriteDTD(x.Root, &b, seen)
	return strings.TrimRight(b.String(), "\n")
}

func oracleWriteDTD(e *Elem, b *strings.Builder, seen map[string]bool) {
	if e == nil || seen[e.Tag] {
		return
	}
	seen[e.Tag] = true
	names := make([]string, 0, len(e.Children))
	for _, c := range e.Children {
		if c != nil { // a nil child constrains nothing
			names = append(names, c.Tag)
		}
	}
	switch {
	case len(names) > 0:
		fmt.Fprintf(b, "<!ELEMENT %s (%s)>\n", e.Tag, strings.Join(names, ", "))
	case e.Text != nil:
		fmt.Fprintf(b, "<!ELEMENT %s (#PCDATA)>\n", e.Tag)
	default:
		fmt.Fprintf(b, "<!ELEMENT %s EMPTY>\n", e.Tag)
	}
	if len(e.Attrs) > 0 {
		attrs := make([]string, 0, len(e.Attrs))
		for _, a := range e.Attrs {
			attrs = append(attrs, fmt.Sprintf("%s CDATA #IMPLIED", a.Key))
		}
		sort.Strings(attrs)
		fmt.Fprintf(b, "<!ATTLIST %s %s>\n", e.Tag, strings.Join(attrs, " "))
	}
	for _, c := range e.Children {
		oracleWriteDTD(c, b, seen)
	}
}

func oracleKeywords(s Sig) []string {
	set := map[string]bool{}
	oracleCollectKeywords(s, set)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func oracleCollectKeywords(s Sig, set map[string]bool) {
	switch v := s.(type) {
	case *Lit:
		for _, k := range oracleQueryKeys(v.Val) {
			set[k] = true
		}
	case *Concat:
		for _, p := range v.Parts {
			oracleCollectKeywords(p, set)
		}
	case *Rep:
		oracleCollectKeywords(v.Body, set)
	case *Or:
		for _, a := range v.Alts {
			oracleCollectKeywords(a, set)
		}
	case *Obj:
		for _, kv := range v.Pairs {
			if !kv.Dyn {
				set[kv.Key] = true
			}
			oracleCollectKeywords(kv.Val, set)
		}
	case *Arr:
		for _, e := range v.Elems {
			oracleCollectKeywords(e, set)
		}
	case *JSON:
		oracleCollectKeywords(v.Root, set)
	case *XML:
		oracleCollectElemKeywords(v.Root, set)
	}
}

func oracleCollectElemKeywords(e *Elem, set map[string]bool) {
	if e == nil {
		return
	}
	set[e.Tag] = true
	for _, a := range e.Attrs {
		set[a.Key] = true
		oracleCollectKeywords(a.Val, set)
	}
	for _, c := range e.Children {
		oracleCollectElemKeywords(c, set)
	}
	oracleCollectKeywords(e.Text, set)
}

func oracleQueryKeys(s string) []string {
	var out []string
	i := 0
	for i < len(s) {
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			break
		}
		j += i
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

// checkRenderersMatchOracle holds every append renderer, from an empty
// buffer and after a prefix, and the string wrappers over them, to the
// oracle on s, requires the JSONSchema document of s to be valid JSON, and
// holds Equal of s and each of others to the equality of their oracle
// canonical forms.
func checkRenderersMatchOracle(t *testing.T, s Sig, others []Sig) {
	t.Helper()
	const prefix = "prefix\x00"
	check := func(name, want string, got func([]byte) []byte) {
		t.Helper()
		if g := string(got(nil)); g != want {
			t.Fatalf("%s(%s):\ngot  %q\nwant %q", name, oracleCanon(s), g, want)
		}
		if p := string(got([]byte(prefix))); p != prefix+want {
			t.Fatalf("%s(%s) after a prefix:\ngot  %q\nwant %q", name, oracleCanon(s), p, prefix+want)
		}
	}
	check("AppendCanon", oracleCanon(s), func(b []byte) []byte { return AppendCanon(b, s) })
	check("AppendRegex", oracleRegex(s), func(b []byte) []byte { return AppendRegex(b, s) })
	check("AppendRegexBody", oracleRegexBody(s), func(b []byte) []byte { return AppendRegexBody(b, s) })
	check("AppendJSONSchema", oracleJSONSchema(s), func(b []byte) []byte { return AppendJSONSchema(b, s) })
	if x, ok := s.(*XML); ok {
		check("AppendDTD", oracleDTD(x), func(b []byte) []byte { return AppendDTD(b, x) })
	}
	if got, want := Canon(s), oracleCanon(s); got != want {
		t.Fatalf("Canon = %q, want %q", got, want)
	}
	if got, want := Regex(s), oracleRegex(s); got != want {
		t.Fatalf("Regex(%s) = %q, want %q", oracleCanon(s), got, want)
	}
	if got, want := RegexBody(s), oracleRegexBody(s); got != want {
		t.Fatalf("RegexBody(%s) = %q, want %q", oracleCanon(s), got, want)
	}
	if got := AppendJSONSchema(nil, s); !json.Valid(got) {
		t.Fatalf("AppendJSONSchema(%s) = %q is not valid JSON", oracleCanon(s), got)
	}
	want := oracleKeywords(s)
	if got := Keywords(s); strings.Join(got, "\x00") != strings.Join(want, "\x00") || len(got) != len(want) {
		t.Fatalf("Keywords(%s) = %q, want %q", oracleCanon(s), got, want)
	}
	kept := []string{"z", "a"}
	if got := AppendKeywords(kept, s); strings.Join(got, "\x00") != strings.Join(append(kept, want...), "\x00") ||
		len(got) != len(kept)+len(want) {
		t.Fatalf("AppendKeywords(%q, %s) = %q, want %q", kept, oracleCanon(s), got, append(kept, want...))
	}
	for _, o := range others {
		if got, want := Equal(s, o), oracleCanon(s) == oracleCanon(o); got != want {
			t.Fatalf("Equal(%s, %s) = %v, want %v", oracleCanon(s), oracleCanon(o), got, want)
		}
	}
}

// oracleSigs are corpusSigs plus the shapes whose renderings have rules of
// their own: regex metacharacters, query keys, repeated keywords,
// attributes whose declarations sort unlike their keys, a repeated tag, a
// literal long enough to outgrow a stack buffer, and a numeric literal
// that is no JSON number.
func oracleSigs() []Sig {
	long := strings.Repeat("https://api.example.com/v1/items?", 20)
	return append(corpusSigs(),
		Str(`\.+*?()|[]{}^$ meta`),
		Cat(Str("a=1&b=2&a="), AnyInt(), Str("&=x&-k.=1")),
		Cat(Str(long), Repeat(Cat(Str("&id="), AnyInt())), Disjoin(Str("x"), &Unknown{Type: VBool})),
		&JSON{Root: &Obj{Pairs: []KV{
			{Key: "k", Val: Cat(Str("p?"), AnyInt())},
			{Key: "k", Val: Repeat(Str("r"))},
			{Key: "bad\xff\x00", Val: Str("\a\v\x7f")},
			{Dyn: true, Val: AnyString()},
			{Dyn: true, Val: AnyInt()},
		}}},
		&XML{Root: &Elem{
			Tag:   "r",
			Attrs: []KV{{Key: "a b"}, {Key: "a"}, {Key: "a\x01"}, {Key: "ab"}, {Key: "a CDATA"}, {Key: "a"}},
			Children: []*Elem{
				{Tag: "c", Text: Str("t")},
				{Tag: "r"},
				{Tag: "c", Attrs: []KV{{Key: "x", Val: Str("y=1")}}},
			},
		}},
		&XML{Root: &Elem{Tag: "r", Children: []*Elem{{Tag: "c"}, nil}}},
		&JSON{Root: &Arr{Elems: []Sig{Num(""), Num("1e3")}}},
	)
}

// TestRenderersMatchOracle holds the append renderers to the former
// strings.Builder renderers on every node kind and edge case.
func TestRenderersMatchOracle(t *testing.T) {
	sigs := oracleSigs()
	for _, s := range sigs {
		checkRenderersMatchOracle(t, s, sigs)
	}
}
