package siglang

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strings"
)

// ByteStats accounts matched bytes of a traffic payload against a
// signature, the measurement behind Table 2 of the paper:
//
//	Key   (Rk): bytes matched by constant keywords of the signature
//	Value (Rv): bytes of values whose key the signature identified
//	None  (Rn): bytes in regions where both key and value are wildcards
type ByteStats struct {
	Key, Value, None int
}

// Total returns the number of accounted bytes.
func (s ByteStats) Total() int { return s.Key + s.Value + s.None }

// Add accumulates o into s.
func (s *ByteStats) Add(o ByteStats) {
	s.Key += o.Key
	s.Value += o.Value
	s.None += o.None
}

// Fractions returns (Rk, Rv, Rn) as fractions of the total, or zeros for an
// empty payload.
func (s ByteStats) Fractions() (rk, rv, rn float64) {
	t := float64(s.Total())
	if t == 0 {
		return 0, 0, 0
	}
	return float64(s.Key) / t, float64(s.Value) / t, float64(s.None) / t
}

// AccountText runs the greedy literal-fragment byte accounting of a text
// match over an already-matched payload: each fragment's bytes count as
// Key, the wildcard-covered spans between them as Value. The compiled
// matcher (internal/sigvm), which precomputes the fragment list, and its
// interpretive test oracle both account through it.
func AccountText(lits []string, payload string) ByteStats {
	var st ByteStats
	rest := payload
	for _, lit := range lits {
		if lit == "" {
			continue
		}
		i := strings.Index(rest, lit)
		if i < 0 {
			break
		}
		st.Value += i // wildcard-covered span before the literal
		st.Key += len(lit)
		rest = rest[i+len(lit):]
	}
	st.Value += len(rest)
	return st
}

// LiteralFragments returns the unconditional constant fragments of a text
// signature in order: literals under concatenation, skipping repetition
// bodies (may appear zero times) and disjunction alternatives (ambiguous).
// This is the fragment sequence AccountText consumes greedily; the
// compiled matcher (internal/sigvm) precomputes it once per signature.
func LiteralFragments(s Sig) []string {
	var out []string
	var walk func(Sig)
	walk = func(s Sig) {
		switch v := s.(type) {
		case *Lit:
			out = append(out, v.Val)
		case *Concat:
			for _, p := range v.Parts {
				walk(p)
			}
		case *Rep:
			// repetition contents may appear 0 times; skip
		case *Or:
			// alternatives are ambiguous; skip
		}
	}
	walk(s)
	return out
}

// LiteralMatches reports whether a decoded JSON leaf equals a literal
// signature term: strings compare directly, numbers and booleans through
// their canonical %v rendering. Shared by the compiled matcher and its
// interpretive test oracle so verdicts cannot drift.
func LiteralMatches(l *Lit, v any) bool {
	switch tv := v.(type) {
	case string:
		return tv == l.Val
	case float64:
		return l.Num && fmt.Sprintf("%v", tv) == l.Val
	case bool:
		return fmt.Sprintf("%v", tv) == l.Val
	default:
		return false
	}
}

// XMLNode is the decoded form of an XML payload: one node per element,
// attributes flattened to a map, character data concatenated. Exported so
// the compiled matcher (internal/sigvm) walks the same decoded tree its
// interpretive test oracle does.
type XMLNode struct {
	Tag      string
	Attrs    map[string]string
	Children []*XMLNode
	Text     string
}

// ParseXMLPayload decodes an XML payload into an XMLNode tree; the
// compiled matcher and its test oracle both decode through it so error
// behavior and tree shape are identical.
func ParseXMLPayload(data []byte) (*XMLNode, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var stack []*XMLNode
	var root *XMLNode
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &XMLNode{Tag: t.Name.Local, Attrs: map[string]string{}}
			for _, a := range t.Attr {
				n.Attrs[a.Name.Local] = a.Value
			}
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			} else {
				root = n
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].Text += string(t)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("siglang: payload is not XML")
	}
	return root, nil
}

// XMLNodeSize returns the byte count the Table 2 accounting charges for an
// undescribed XML subtree. Exported so the compiled matcher and its test
// oracle account identically.
func XMLNodeSize(n *XMLNode) int {
	size := len(n.Tag)*2 + 5 + len(strings.TrimSpace(n.Text))
	for k, v := range n.Attrs {
		size += len(k) + 3 + len(v)
	}
	for _, c := range n.Children {
		size += XMLNodeSize(c)
	}
	return size
}

// QueryShapedBody reports whether a text body should be matched as a
// query string ("k=v&..." accounting) rather than as free text. The
// compiled matcher (internal/sigvm) and its interpretive test oracle both
// dispatch through this predicate so text-body verdicts cannot drift.
func QueryShapedBody(body string) bool {
	return strings.Contains(body, "=") && !strings.HasPrefix(strings.TrimSpace(body), "{")
}
