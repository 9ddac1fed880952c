package sigvm

import (
	"extractocol/internal/siglang"
)

// JSONProg is a compiled JSON-body matcher: the signature tree flattened
// into an array of nodes with every per-call derivation of the
// interpretive matcher precomputed — object key sets interned, the
// last-dynamic-pair value resolved, array element signatures
// confluence-merged (over clones, so compiling never mutates the report's
// trees), and string-leaf regexes lowered to text bytecode instead of
// being recompiled per payload.
type JSONProg struct {
	nodes []jsonNode
	root  int32 // index of the root node; -1 for a nil signature
}

// jsonNode is one flattened signature node. Child references are indices
// into JSONProg.nodes; -1 is the nil signature (matchLeafOrRecurse's
// "value structure unknown" branch).
type jsonNode struct {
	kind jsonKind

	// kObj
	fields   map[uint32]int32 // interned key → value node (first non-dyn pair wins, as Obj.Get does)
	required []string         // non-dyn keys that must be present in the payload
	dyn      int32            // value node of the last dynamic pair
	hasDyn   bool

	// kArr
	item int32 // confluence-merge of the element signatures

	// kOr
	alts []int32

	// kLit
	lit *siglang.Lit

	// kText: Concat/Rep (or any other leaf) matched as an anchored regex
	// against string payloads
	text *TextProg
}

type jsonKind uint8

const (
	kObj jsonKind = iota
	kArr
	kOr
	kLit
	kUnknown
	kText
)

func (b *Bundle) compileJSON(s siglang.Sig) *JSONProg {
	p := &JSONProg{}
	p.root = b.compileJSONNode(p, s)
	return p
}

// compileJSONNode flattens one signature subtree, returning its node index
// (-1 for nil). The case split mirrors matchJSONValue exactly.
func (b *Bundle) compileJSONNode(p *JSONProg, s siglang.Sig) int32 {
	switch v := s.(type) {
	case nil:
		return -1
	case *siglang.JSON:
		return b.compileJSONNode(p, v.Root)
	case *siglang.Obj:
		n := jsonNode{kind: kObj, fields: map[uint32]int32{}, dyn: -1}
		if v != nil {
			for _, kv := range v.Pairs {
				if kv.Dyn {
					// Last dynamic pair wins, as in the interpreter's scan.
					n.hasDyn = true
					n.dyn = b.compileJSONNode(p, kv.Val)
					continue
				}
				id := b.syms.Intern(kv.Key)
				if _, seen := n.fields[id]; !seen {
					// First non-dyn pair wins, as Obj.Get does.
					n.fields[id] = b.compileJSONNode(p, kv.Val)
					n.required = append(n.required, kv.Key)
				}
			}
		}
		return p.push(n)
	case *siglang.Arr:
		var item siglang.Sig
		for _, e := range v.Elems {
			// Merge mutates its first operand (MergeObj appends pairs in
			// place), so fold over clones: the report's tree stays pristine
			// and the compiled item equals what the interpreter builds.
			item = siglang.Merge(item, siglang.Clone(e))
		}
		return p.push(jsonNode{kind: kArr, item: b.compileJSONNode(p, item)})
	case *siglang.Or:
		n := jsonNode{kind: kOr}
		for _, a := range v.Alts {
			n.alts = append(n.alts, b.compileJSONNode(p, a))
		}
		return p.push(n)
	case *siglang.Lit:
		return p.push(jsonNode{kind: kLit, lit: v})
	case *siglang.Unknown:
		return p.push(jsonNode{kind: kUnknown})
	default:
		return p.push(jsonNode{kind: kText, text: compileText(s)})
	}
}

func (p *JSONProg) push(n jsonNode) int32 {
	p.nodes = append(p.nodes, n)
	return int32(len(p.nodes) - 1)
}

// matchJSON is the oracle's MatchJSON on a compiled program: decode through
// the shared DecodeJSONPayload, then walk the flattened nodes with identical
// verdicts and byte accounting.
func (m *Matcher) matchJSON(p *JSONProg, payload []byte) (bool, siglang.ByteStats, error) {
	v, err := siglang.DecodeJSONPayload(payload)
	if err != nil {
		return false, siglang.ByteStats{}, err
	}
	var st siglang.ByteStats
	ok := m.matchJSONValue(p, p.root, v, &st)
	return ok, st, nil
}

// matchJSONValue mirrors the oracle's matchJSONValue node for node. idx == -1
// is the nil signature: the payload subtree is unaccounted (None).
func (m *Matcher) matchJSONValue(p *JSONProg, idx int32, v any, st *siglang.ByteStats) bool {
	if idx < 0 {
		st.None += siglang.JSONSize(v)
		return true
	}
	n := &p.nodes[idx]
	switch n.kind {
	case kObj:
		mp, isMap := v.(map[string]any)
		if !isMap {
			st.None += siglang.JSONSize(v)
			return false
		}
		ok := true
		for _, k := range n.required {
			if _, present := mp[k]; !present {
				ok = false
			}
		}
		for k, val := range mp {
			if fieldIdx, known := m.lookupField(n, k); known {
				st.Key += len(k) + 3 // quotes + colon
				if !m.matchLeaf(p, fieldIdx, val, st) {
					ok = false
				}
			} else if n.hasDyn {
				st.Value += len(k) + 3
				if !m.matchLeaf(p, n.dyn, val, st) {
					ok = false
				}
			} else {
				st.None += len(k) + 3 + siglang.JSONSize(val)
			}
		}
		return ok
	case kArr:
		arr, isArr := v.([]any)
		if !isArr {
			st.None += siglang.JSONSize(v)
			return false
		}
		ok := true
		for _, el := range arr {
			if !m.matchLeaf(p, n.item, el, st) {
				ok = false
			}
		}
		return ok
	case kOr:
		for _, alt := range n.alts {
			var tmp siglang.ByteStats
			if m.matchJSONValue(p, alt, v, &tmp) {
				st.Add(tmp)
				return true
			}
		}
		st.None += siglang.JSONSize(v)
		return false
	case kLit:
		st.Value += siglang.JSONSize(v)
		return siglang.LiteralMatches(n.lit, v)
	case kUnknown:
		st.Value += siglang.JSONSize(v)
		return true
	default: // kText
		st.Value += siglang.JSONSize(v)
		str, isStr := v.(string)
		if !isStr {
			return true
		}
		return m.matchText(n.text, str)
	}
}

// matchLeaf mirrors matchLeafOrRecurse: a nil signature accepts the value
// and charges its bytes as Value (the key was known, the structure is not).
func (m *Matcher) matchLeaf(p *JSONProg, idx int32, val any, st *siglang.ByteStats) bool {
	if idx < 0 {
		st.Value += siglang.JSONSize(val)
		return true
	}
	return m.matchJSONValue(p, idx, val, st)
}

// lookupField resolves a payload key against an object node's interned
// field set.
func (m *Matcher) lookupField(n *jsonNode, k string) (int32, bool) {
	id, ok := m.b.syms.Lookup(k)
	if !ok {
		return -1, false
	}
	idx, known := n.fields[id]
	return idx, known
}
