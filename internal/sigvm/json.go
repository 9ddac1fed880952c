package sigvm

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"unicode/utf8"

	"extractocol/internal/siglang"
)

// JSONProg is a compiled JSON-body matcher: the signature tree flattened
// into an array of nodes with every per-call derivation of the
// interpretive matcher precomputed — object key sets indexed, the
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
	fields map[string]int32 // key → value node (first non-dyn pair wins, as Obj.Get does)
	dyn    int32            // value node of the last dynamic pair
	hasDyn bool

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
// (-1 for nil). The case split mirrors the oracle's matchJSONValue exactly.
func (b *Bundle) compileJSONNode(p *JSONProg, s siglang.Sig) int32 {
	switch v := s.(type) {
	case nil:
		return -1
	case *siglang.JSON:
		return b.compileJSONNode(p, v.Root)
	case *siglang.Obj:
		n := jsonNode{kind: kObj, fields: map[string]int32{}, dyn: -1}
		if v != nil {
			for _, kv := range v.Pairs {
				if kv.Dyn {
					// Last dynamic pair wins, as in the interpreter's scan.
					n.hasDyn = true
					n.dyn = b.compileJSONNode(p, kv.Val)
					continue
				}
				if _, seen := n.fields[kv.Key]; !seen {
					// First non-dyn pair wins, as Obj.Get does.
					n.fields[kv.Key] = b.compileJSONNode(p, kv.Val)
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

// errNotJSON is returned for a payload json.Unmarshal would reject: one
// json.Valid refuses, or one with a number that overflows float64.
var errNotJSON = errors.New("sigvm: payload does not decode as JSON")

// jsonWalk is a Matcher's state for walking one JSON payload, plus the
// scratch it reuses from payload to payload.
type jsonWalk struct {
	src    string // the payload, already checked by json.Valid
	prog   *JSONProg
	badNum bool // a number overflowed float64, which fails the payload

	members []jsonMember        // members of the objects open on the walk, innermost last
	seen    map[string]struct{} // the keys of one object, for duplicate detection
}

// jsonMember is one key-value pair of an object, walked but not yet
// counted: only the last occurrence of a key counts.
type jsonMember struct {
	key   string            // decoded key
	st    siglang.ByteStats // charges for the key and the value
	size  int               // re-marshalled size of the value
	ok    bool              // the value matched its signature
	known bool              // the key is one of the object node's fields
	last  bool              // no later member has the same key
}

// matchJSON is the oracle's MatchJSON on a compiled program, without a
// decoded tree. json.Valid runs the scanner json.Unmarshal runs before it
// decodes, so both sides accept the same payloads; the walk then reads the
// bytes against the flattened nodes with the oracle's verdicts and byte
// accounting, including what decoding into interface{} does implicitly:
// strings unquoted by encoding/json's rules, a float64 overflow failing
// the payload, the last of duplicate keys winning, and sizes that are
// re-marshalled lengths rather than raw byte spans.
func (m *Matcher) matchJSON(p *JSONProg, payload string) (bool, siglang.ByteStats, error) {
	if !json.Valid([]byte(payload)) {
		return false, siglang.ByteStats{}, errNotJSON
	}
	w := &m.json
	w.src, w.prog, w.badNum = payload, p, false
	_, ok, _, st := m.walkValue(p.root, skipWS(payload, 0))
	w.src, w.prog = "", nil
	if w.badNum {
		return false, siglang.ByteStats{}, errNotJSON
	}
	return ok, st, nil
}

// walkValue matches the value starting at src[i] against node idx, the
// oracle's matchJSONValue, and returns the index past the value, the
// verdict, the value's re-marshalled size and its byte accounting. idx ==
// -1 is the nil signature: the value is unaccounted (None). The walk
// returns accounting by value: a pointer into a caller's loop variable
// would make escape analysis move it to the heap, as the recursion gives
// every level one parameter location.
func (m *Matcher) walkValue(idx int32, i int) (end int, ok bool, size int, st siglang.ByteStats) {
	if idx < 0 {
		end, size = m.sizeValue(i)
		st.None = size
		return end, true, size, st
	}
	s := m.json.src
	n := &m.json.prog.nodes[idx]
	switch n.kind {
	case kObj:
		if s[i] == '{' {
			return m.walkObject(n, i)
		}
		end, size = m.sizeValue(i)
		st.None = size
		return end, false, size, st
	case kArr:
		if s[i] == '[' {
			return m.walkArray(n.item, i)
		}
		end, size = m.sizeValue(i)
		st.None = size
		return end, false, size, st
	case kOr:
		// Every alternative walks the same bytes; the first that matches
		// supplies the accounting.
		for _, alt := range n.alts {
			if end, ok, size, st = m.walkValue(alt, i); ok {
				return end, true, size, st
			}
		}
		if len(n.alts) == 0 {
			end, size = m.sizeValue(i)
		}
		return end, false, size, siglang.ByteStats{None: size}
	case kLit:
		end, ok, size = m.walkLiteral(n.lit, i)
		st.Value = size
		return end, ok, size, st
	case kUnknown:
		end, size = m.sizeValue(i)
		st.Value = size
		return end, true, size, st
	default: // kText
		if s[i] != '"' {
			end, size = m.sizeValue(i)
			st.Value = size
			return end, true, size, st
		}
		end, str := m.walkString(i)
		size = quotedJSONLen(str)
		st.Value = size
		return end, m.matchText(n.text, str), size, st
	}
}

// walkLeaf is the oracle's matchLeafOrRecurse: a nil signature accepts
// the value and charges its bytes as Value (the key was known, the
// structure is not).
func (m *Matcher) walkLeaf(idx int32, i int) (end int, ok bool, size int, st siglang.ByteStats) {
	if idx < 0 {
		end, size = m.sizeValue(i)
		st.Value = size
		return end, true, size, st
	}
	return m.walkValue(idx, i)
}

// walkObject walks the object starting at src[i] == '{'. Against an
// object node n it returns the verdict and the accounting; with n == nil
// it only sizes the object. Members are accounted into their own records
// first, because a later duplicate key replaces an earlier member's value,
// verdict and bytes, as decoding into a map does.
func (m *Matcher) walkObject(n *jsonNode, i int) (end int, ok bool, size int, st siglang.ByteStats) {
	s := m.json.src
	base := len(m.json.members)
	for i = skipWS(s, i+1); s[i] != '}'; {
		var mem jsonMember
		i, mem.key = m.walkString(i)
		i = skipWS(s, skipWS(s, i)+1) // past the ':'
		charge := len(mem.key) + 3    // quotes and colon
		var field int32
		if n != nil {
			field, mem.known = n.fields[mem.key]
		}
		switch {
		case mem.known:
			i, mem.ok, mem.size, mem.st = m.walkLeaf(field, i)
			mem.st.Key += charge
		case n != nil && n.hasDyn:
			// Dynamically generated keys: the value structure may still
			// be known.
			i, mem.ok, mem.size, mem.st = m.walkLeaf(n.dyn, i)
			mem.st.Value += charge
		default:
			i, mem.size = m.sizeValue(i)
			mem.st.None = charge + mem.size
			mem.ok = true
		}
		m.json.members = append(m.json.members, mem)
		if i = skipWS(s, i); s[i] == ',' {
			i = skipWS(s, i+1)
		}
	}
	members := m.json.members[base:]
	m.markLast(members)
	ok = true
	count, known := 0, 0
	size = 1 // '{', and per member its bytes plus a ',' or the closing '}'
	for k := range members {
		mem := &members[k]
		if !mem.last {
			continue
		}
		count++
		size += quotedJSONLen(mem.key) + 1 + mem.size + 1
		st.Add(mem.st)
		ok = ok && mem.ok
		if mem.known {
			known++
		}
	}
	if count == 0 {
		size = 2
	}
	m.json.members = m.json.members[:base]
	// The surviving keys are distinct, so every field is present exactly
	// when each one was counted once.
	if n != nil && known != len(n.fields) {
		ok = false
	}
	return i + 1, ok, size, st
}

// markLast flags each member that no later member of the same object
// repeats. It walks the members backwards through the matcher's reused
// set, so one object costs time linear in its number of keys: a key the
// set already holds leaves its size unchanged.
func (m *Matcher) markLast(members []jsonMember) {
	if m.json.seen == nil {
		m.json.seen = map[string]struct{}{}
	}
	seen := m.json.seen
	for a := len(members) - 1; a >= 0; a-- {
		n := len(seen)
		seen[members[a].key] = struct{}{}
		members[a].last = len(seen) > n
	}
	for a := range members {
		delete(seen, members[a].key)
	}
}

// walkArray walks the array starting at src[i] == '[', matching every
// element against node item as a leaf.
func (m *Matcher) walkArray(item int32, i int) (end int, ok bool, size int, st siglang.ByteStats) {
	s := m.json.src
	ok = true
	count := 0
	size = 1 // '[', and per element its bytes plus a ',' or the closing ']'
	for i = skipWS(s, i+1); s[i] != ']'; {
		elEnd, elOK, elSize, elSt := m.walkLeaf(item, i)
		i = elEnd
		ok = ok && elOK
		size += elSize + 1
		st.Add(elSt)
		count++
		if i = skipWS(s, i); s[i] == ',' {
			i = skipWS(s, i+1)
		}
	}
	if count == 0 {
		size = 2
	}
	return i + 1, ok, size, st
}

// sizeValue walks the value starting at src[i] without a signature and
// returns the index past it and its re-marshalled size.
func (m *Matcher) sizeValue(i int) (end, size int) {
	switch c := m.json.src[i]; c {
	case '{':
		end, _, size, _ = m.walkObject(nil, i)
	case '[':
		end, _, size, _ = m.walkArray(-1, i)
	case '"':
		var str string
		end, str = m.walkString(i)
		size = quotedJSONLen(str)
	case 't', 'n':
		end, size = i+4, 4
	case 'f':
		end, size = i+5, 5
	default:
		end, _, size = m.walkNumber(i)
	}
	return end, size
}

// walkLiteral compares the value starting at src[i] with a literal
// signature term, as LiteralMatches does with the decoded value.
func (m *Matcher) walkLiteral(l *siglang.Lit, i int) (end int, ok bool, size int) {
	switch c := m.json.src[i]; {
	case c == '"':
		end, str := m.walkString(i)
		return end, siglang.LiteralMatches(l, str), quotedJSONLen(str)
	case c == 't':
		return i + 4, siglang.LiteralMatches(l, true), 4
	case c == 'f':
		return i + 5, siglang.LiteralMatches(l, false), 5
	case c == '-' || c >= '0' && c <= '9':
		end, f, size := m.walkNumber(i)
		return end, siglang.LiteralMatches(l, f), size
	default: // null, an object or an array: never equal to a literal
		end, size = m.sizeValue(i)
		return end, false, size
	}
}

// walkNumber parses the number starting at src[i] as json.Unmarshal does
// into interface{}, recording an overflow, and returns the index past it,
// its value and its re-marshalled size.
func (m *Matcher) walkNumber(i int) (end int, f float64, size int) {
	s := m.json.src
	for end = i; end < len(s); end++ {
		if c := s[end]; c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && (c < '0' || c > '9') {
			break
		}
	}
	f, err := strconv.ParseFloat(s[i:end], 64)
	if err != nil {
		m.json.badNum = true
		return end, 0, 0
	}
	return end, f, jsonFloatLen(f)
}

// walkString scans the string starting at src[i] == '"' and returns the
// index past its closing quote and its value. A string without escapes
// or invalid UTF-8 is its own value, a substring of the payload; any
// other is decoded by encoding/json itself.
func (m *Matcher) walkString(i int) (end int, val string) {
	s := m.json.src
	for j := i + 1; j < len(s); {
		switch c := s[j]; {
		case c == '"':
			return j + 1, s[i+1 : j]
		case c == '\\':
			return unquote(s, i)
		case c < utf8.RuneSelf:
			j++
		default:
			r, n := utf8.DecodeRuneInString(s[j:])
			if r == utf8.RuneError && n == 1 {
				return unquote(s, i)
			}
			j += n
		}
	}
	return len(s), "" // unreachable on a payload json.Valid accepted
}

// unquote decodes the string token starting at s[i] == '"' with
// json.Unmarshal, so escapes, surrogate pairs and the U+FFFD replacement
// of unpaired surrogates and invalid UTF-8 follow encoding/json exactly.
// The token is valid JSON, so decoding it cannot fail.
func unquote(s string, i int) (end int, val string) {
	for end = i + 1; s[end] != '"'; end++ {
		if s[end] == '\\' {
			end++
		}
	}
	end++
	_ = json.Unmarshal([]byte(s[i:end]), &val)
	return end, val
}

func skipWS(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}

// quotedJSONLen is the marshalled length of a string, replicating
// encoding/json's appendString with its default HTML escaping: short
// escapes for \", \\, \b, \f, \n, \r, \t; \u00XX for other control bytes
// and for <, >, &; the six-byte \ufffd escape for invalid UTF-8 bytes;
// \u2028 and \u2029 escaped; every other rune passes through at its
// encoded width.
func quotedJSONLen(s string) int {
	n := 2
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				n++
			} else {
				switch b {
				case '"', '\\', '\b', '\f', '\n', '\r', '\t':
					n += 2
				default:
					n += 6
				}
			}
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			n += len(`\ufffd`) // the six-byte escape sequence
		case c == '\u2028' || c == '\u2029':
			n += len(`\u2028`)
		default:
			n += size
		}
		i += size
	}
	return n
}

// jsonFloatLen is the marshalled length of a float64, replicating
// encoding/json's floatEncoder: %f inside [1e-6, 1e21), %e outside with
// the single-zero exponent trimmed ("e-09" to "e-9"); non-finite values
// fail to marshal and keep their historical size of zero.
func jsonFloatLen(f float64) int {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return 0
	}
	var buf [32]byte
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(buf[:0], f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b = b[:n-1]
		}
	}
	return len(b)
}
