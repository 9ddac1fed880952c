package siglang

import (
	"cmp"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// AppendJSONSchema appends to b the JSONSchema document of s: a compact
// JSON-Schema-like rendering of a JSON signature tree. Unknown leaves
// become {"type": "..."} entries; objects list their properties; open
// arrays carry an "items" entry. Keys, string constants and patterns are
// quoted by appendJSONQuote, and a numeric constant is written as it is
// only when it is a JSON number, as the analysis's strconv.FormatInt
// output always is; so the document is valid JSON whatever bytes they hold.
func AppendJSONSchema(b []byte, s Sig) []byte {
	switch v := s.(type) {
	case nil:
		b = append(b, `{"type":"any"}`...)
	case *JSON:
		b = AppendJSONSchema(b, v.Root)
	case *Lit:
		switch {
		case !v.Num:
			b = append(b, `{"type":"string","const":`...)
			b = appendJSONQuote(b, v.Val)
		case isJSONNumber(v.Val):
			b = append(b, `{"type":"number","const":`...)
			b = append(b, v.Val...)
		default:
			// The parser and the cache codec carry any text as a numeric
			// literal; one that is no JSON number constrains only the type.
			b = append(b, `{"type":"number"`...)
		}
		b = append(b, '}')
	case *Unknown:
		switch v.Type {
		case VInt:
			b = append(b, `{"type":"number"}`...)
		case VBool:
			b = append(b, `{"type":"boolean"}`...)
		case VString:
			b = append(b, `{"type":"string"}`...)
		default:
			b = append(b, `{"type":"any"}`...)
		}
	case *Obj:
		b = append(b, `{"type":"object","properties":{`...)
		first := true
		for _, kv := range v.Pairs {
			if kv.Dyn {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = appendJSONQuote(b, kv.Key)
			b = append(b, ':')
			b = AppendJSONSchema(b, kv.Val)
		}
		b = append(b, '}')
		for _, kv := range v.Pairs {
			if kv.Dyn {
				b = append(b, `,"additionalProperties":`...)
				b = AppendJSONSchema(b, kv.Val)
				break
			}
		}
		b = append(b, '}')
	case *Arr:
		b = append(b, `{"type":"array","items":`...)
		var item Sig
		for _, e := range v.Elems {
			item = Merge(item, e)
		}
		b = AppendJSONSchema(b, item)
		b = append(b, '}')
	case *Or:
		b = append(b, `{"anyOf":[`...)
		for i, a := range v.Alts {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendJSONSchema(b, a)
		}
		b = append(b, "]}"...)
	case *Concat, *Rep:
		// Text-shaped signature inside a JSON position: describe as string.
		// The pattern is rendered after the document and quoted from there,
		// and the quoted copy is moved down over it.
		b = append(b, `{"type":"string","pattern":`...)
		n := len(b)
		b = AppendRegexBody(b, s)
		m := len(b)
		b = appendJSONQuote(b, b[n:m])
		b = append(b[:n], b[m:]...)
		b = append(b, '}')
	case *XML:
		b = append(b, `{"type":"string","media":"text/xml"}`...)
	}
	return b
}

// appendJSONQuote appends s as a JSON string literal. Wherever
// strconv.Quote's output is valid JSON, these are its bytes. Where it is
// not, JSON's escapes stand in for Go's: \u00hh for a control byte that
// strconv writes as \a, \v or \xhh and for DEL, a UTF-16 surrogate pair of
// \uhhhh escapes for a rune it writes as \Uhhhhhhhh, and \ufffd for each
// byte of invalid UTF-8, which a JSON string cannot carry.
func appendJSONQuote[S string | []byte](b []byte, s S) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			switch {
			case c == '"' || c == '\\':
				b = append(b, '\\', c)
			case c >= ' ' && c != 0x7f:
				b = append(b, c)
			case c == '\b':
				b = append(b, `\b`...)
			case c == '\f':
				b = append(b, `\f`...)
			case c == '\n':
				b = append(b, `\n`...)
			case c == '\r':
				b = append(b, `\r`...)
			case c == '\t':
				b = append(b, `\t`...)
			default:
				b = appendJSONEscape(b, rune(c))
			}
			continue
		}
		// Only a few bytes are converted, so the string stays on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(len(s), i+utf8.UTFMax)]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = appendJSONEscape(b, utf8.RuneError)
		case strconv.IsPrint(r):
			b = append(b, s[i:i+size]...)
		case r < 0x10000:
			b = appendJSONEscape(b, r)
		default:
			hi, lo := utf16.EncodeRune(r)
			b = appendJSONEscape(appendJSONEscape(b, hi), lo)
		}
		i += size
	}
	return append(b, '"')
}

// isJSONNumber reports whether s is a number by JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, without allocating.
func isJSONNumber(s string) bool {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = skipDigits(s, i)
	default:
		return false
	}
	if i < len(s) && s[i] == '.' {
		j := skipDigits(s, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := skipDigits(s, i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(s)
}

// skipDigits returns the index of the first byte at or after i of s that
// is no ASCII digit.
func skipDigits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// appendJSONEscape appends the \uhhhh escape of a rune below U+10000, in
// lower-case hex as strconv writes it.
func appendJSONEscape(b []byte, r rune) []byte {
	const hex = "0123456789abcdef"
	return append(b, '\\', 'u', hex[r>>12&0xF], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
}

// AppendDTD appends to b the Document Type Definition of an XML signature
// tree, the alternative representation the paper mentions for XML bodies:
// an element declaration for each tag, the first time it appears in a
// depth-first walk, followed by the tag's attribute list if it has
// attributes, one declaration per line and no newline after the last. It
// appends nothing for an empty tree.
func AppendDTD(b []byte, x *XML) []byte {
	if x == nil || x.Root == nil {
		return b
	}
	var buf [16]string
	b, _ = appendDTD(b, x.Root, buf[:0])
	return b[:len(b)-1]
}

func appendDTD(b []byte, e *Elem, seen []string) ([]byte, []string) {
	if e == nil || slices.Contains(seen, e.Tag) {
		return b, seen
	}
	seen = append(seen, e.Tag)
	b = append(b, "<!ELEMENT "...)
	b = append(b, e.Tag...)
	// A nil child constrains nothing, so it is left out of the list.
	sep := " ("
	for _, c := range e.Children {
		if c != nil {
			b = append(b, sep...)
			b = append(b, c.Tag...)
			sep = ", "
		}
	}
	switch {
	case sep == ", ":
		b = append(b, ")>\n"...)
	case e.Text != nil:
		b = append(b, " (#PCDATA)>\n"...)
	default:
		b = append(b, " EMPTY>\n"...)
	}
	if len(e.Attrs) > 0 {
		var buf [8]int
		order := buf[:0]
		for i := range e.Attrs {
			order = append(order, i)
		}
		slices.SortFunc(order, func(i, j int) int { return compareAttrDecls(e.Attrs[i].Key, e.Attrs[j].Key) })
		b = append(b, "<!ATTLIST "...)
		b = append(b, e.Tag...)
		for _, i := range order {
			b = append(b, ' ')
			b = append(b, e.Attrs[i].Key...)
			b = append(b, attrDecl...)
		}
		b = append(b, ">\n"...)
	}
	for _, c := range e.Children {
		b, seen = appendDTD(b, c, seen)
	}
	return b, seen
}

// attrDecl follows each attribute name in an attribute list.
const attrDecl = " CDATA #IMPLIED"

// compareAttrDecls orders attribute names a and b as their declarations
// a+attrDecl and b+attrDecl compare, without building them.
func compareAttrDecls(a, b string) int {
	for i := 0; ; i++ {
		ca, inA := declByte(a, i)
		cb, inB := declByte(b, i)
		switch {
		case !inA || !inB:
			return cmp.Compare(len(a), len(b))
		case ca != cb:
			return cmp.Compare(ca, cb)
		}
	}
}

// declByte returns byte i of name+attrDecl, if it has one.
func declByte(name string, i int) (byte, bool) {
	if i < len(name) {
		return name[i], true
	}
	if i -= len(name); i < len(attrDecl) {
		return attrDecl[i], true
	}
	return 0, false
}
