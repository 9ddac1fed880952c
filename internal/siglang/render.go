package siglang

import (
	"fmt"
	"sort"
	"strings"
)

// JSONSchema renders a JSON signature tree as a compact JSON-Schema-like
// document. Unknown leaves become {"type": "..."} entries; objects list
// their properties; open arrays carry an "items" entry.
func JSONSchema(s Sig) string {
	var b strings.Builder
	writeSchema(s, &b)
	return b.String()
}

func writeSchema(s Sig, b *strings.Builder) {
	switch v := s.(type) {
	case nil:
		b.WriteString(`{"type":"any"}`)
	case *JSON:
		writeSchema(v.Root, b)
	case *Lit:
		if v.Num {
			fmt.Fprintf(b, `{"type":"number","const":%s}`, v.Val)
		} else {
			fmt.Fprintf(b, `{"type":"string","const":%q}`, v.Val)
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
			fmt.Fprintf(b, "%q:", kv.Key)
			writeSchema(kv.Val, b)
		}
		b.WriteString("}")
		for _, kv := range v.Pairs {
			if kv.Dyn {
				b.WriteString(`,"additionalProperties":`)
				writeSchema(kv.Val, b)
				break
			}
		}
		b.WriteString("}")
	case *Arr:
		b.WriteString(`{"type":"array","items":`)
		var item Sig
		for _, e := range v.Elems {
			// Merge writes into its first operand: fold over clones so
			// rendering leaves the signature tree as it was.
			item = Merge(item, Clone(e))
		}
		writeSchema(item, b)
		b.WriteString("}")
	case *Or:
		b.WriteString(`{"anyOf":[`)
		for i, a := range v.Alts {
			if i > 0 {
				b.WriteString(",")
			}
			writeSchema(a, b)
		}
		b.WriteString("]}")
	case *Concat, *Rep:
		// Text-shaped signature inside a JSON position: describe as string.
		fmt.Fprintf(b, `{"type":"string","pattern":%q}`, RegexBody(s))
	case *XML:
		fmt.Fprintf(b, `{"type":"string","media":"text/xml"}`)
	}
}

// DTD renders an XML signature tree as a Document Type Definition, the
// alternative representation the paper mentions for XML bodies.
func DTD(x *XML) string {
	if x == nil || x.Root == nil {
		return ""
	}
	var b strings.Builder
	seen := map[string]bool{}
	writeDTD(x.Root, &b, seen)
	return strings.TrimRight(b.String(), "\n")
}

func writeDTD(e *Elem, b *strings.Builder, seen map[string]bool) {
	if e == nil || seen[e.Tag] {
		return
	}
	seen[e.Tag] = true
	if len(e.Children) == 0 {
		if e.Text != nil {
			fmt.Fprintf(b, "<!ELEMENT %s (#PCDATA)>\n", e.Tag)
		} else {
			fmt.Fprintf(b, "<!ELEMENT %s EMPTY>\n", e.Tag)
		}
	} else {
		names := make([]string, 0, len(e.Children))
		for _, c := range e.Children {
			names = append(names, c.Tag)
		}
		fmt.Fprintf(b, "<!ELEMENT %s (%s)>\n", e.Tag, strings.Join(names, ", "))
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
		writeDTD(c, b, seen)
	}
}

// Pretty renders a human-oriented multi-line description of a signature,
// used by the CLI report output.
func Pretty(s Sig) string {
	var b strings.Builder
	writePretty(s, &b, 0)
	return b.String()
}

func writePretty(s Sig, b *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	switch v := s.(type) {
	case nil:
		b.WriteString(ind + "*\n")
	case *Lit, *Unknown, *Concat, *Rep, *Or:
		b.WriteString(ind + RegexBody(s) + "\n")
	case *JSON:
		b.WriteString(ind + "JSON\n")
		writePretty(v.Root, b, depth+1)
	case *Obj:
		for _, kv := range v.Pairs {
			key := kv.Key
			if kv.Dyn {
				key = "<dynamic>"
			}
			switch val := kv.Val.(type) {
			case *Obj, *Arr, *JSON:
				b.WriteString(ind + key + ":\n")
				writePretty(val, b, depth+1)
			default:
				b.WriteString(ind + key + ": " + RegexBody(kv.Val) + "\n")
			}
		}
	case *Arr:
		b.WriteString(ind + "[\n")
		for _, e := range v.Elems {
			writePretty(e, b, depth+1)
		}
		if v.Open {
			b.WriteString(ind + "  ...\n")
		}
		b.WriteString(ind + "]\n")
	case *XML:
		b.WriteString(ind + "XML\n")
		writePrettyElem(v.Root, b, depth+1)
	}
}

func writePrettyElem(e *Elem, b *strings.Builder, depth int) {
	if e == nil {
		return
	}
	ind := strings.Repeat("  ", depth)
	b.WriteString(ind + "<" + e.Tag)
	for _, a := range e.Attrs {
		b.WriteString(" " + a.Key)
	}
	b.WriteString(">\n")
	for _, c := range e.Children {
		writePrettyElem(c, b, depth+1)
	}
}
