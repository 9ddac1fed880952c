// Package sigvm compiles siglang signatures into compact matcher programs
// and executes them against traffic at line rate. It is the only traffic
// matcher: trace.MatchReport and trace.Classify (and through them Table 2,
// the §5.1 validity count and cmd/classify) match through one Bundle plus
// a per-worker Matcher. A Bundle does once per report what matching a
// signature tree directly redoes for every entry — rendering and compiling
// the URI regex, rebuilding keyword sets, re-merging array element
// signatures, recompiling string-leaf regexes:
//
//   - URI templates and text bodies lower to a five-opcode Pike-VM
//     bytecode (see text.go) with precomputed literal fragments, anchored
//     literal prefixes, and the rendered-regex length used for best-match
//     tie-breaking. Compile builds no regexp program: parsing the rendered
//     regex decides validity, and only a pattern containing U+FFFD keeps a
//     compiled regexp, for its rune semantics;
//   - each HTTP method's signatures are listed longest rendered regex
//     first, report order among equals (Candidates), so the first URI
//     program that matches an entry is its best match;
//   - query/form key sets become interned-symbol bitsets (query.go);
//   - JSON body trees flatten to node arrays with key sets indexed and
//     array confluence-merges precomputed (json.go); siglang.Merge writes
//     neither operand, so matching never rewrites the report's signature
//     trees. A JSON
//     payload is checked with json.Valid and then walked in place against
//     the nodes, with no decoded tree: strings are unquoted by
//     encoding/json's rules, the last of duplicate keys wins, and sizes
//     are re-marshalled lengths, as decoding into interface{} gives;
//   - XML element trees carry interned attribute/child-tag sets (xml.go)
//     and match the tree siglang.ParseXMLPayload decodes.
//
// A Bundle is immutable after Compile and shared read-only across any
// number of matcher goroutines; all mutable run state (Pike thread lists,
// visited marks, the JSON walk's member stack and key set) lives in
// per-worker Matcher values. The interpretive matcher is the equivalence oracle in this
// package's tests (oracle_test.go): FuzzSigVM and the per-primitive tests
// compare it with the compiled programs, and TestClassifyMatchesOracle
// compares whole classifications of corpus and generated traffic. The
// text, query and XML helpers both share stay in package siglang. On JSON
// the two share only siglang.LiteralMatches and the two length helpers
// (quotedJSONLen, jsonFloatLen): the oracle decodes with encoding/json,
// so only those tests hold the walk to it.
package sigvm

import (
	"sort"

	"extractocol/internal/core"
	"extractocol/internal/intern"
	"extractocol/internal/siglang"
)

// Prog is the compiled form of one transaction signature.
type Prog struct {
	TxID int

	uri *TextProg

	reqKind  string     // RequestSig.BodyKind: "", "query", "json", "text", ...
	reqQuery *QueryProg // "query", and the query-shaped half of "text"
	reqJSON  *JSONProg  // "json"
	reqText  *TextProg  // the text half of "text"

	hasResp  bool   // a response signature exists (even with no body model)
	respKind string // ResponseSig.BodyKind ("" when the body is unused)
	respJSON *JSONProg
	respXML  *XMLProg
}

// Bundle is a report's signatures compiled for matching: one shared
// symbol table, one Prog per transaction. Immutable after Compile.
type Bundle struct {
	syms  *intern.Table
	progs []Prog
	maxPC int // largest text program, sizes Matcher scratch

	// byMethod lists, per HTTP method, the signature indices in the order
	// the best-match rule tries them (see Candidates).
	byMethod map[string][]int
}

// Compile lowers every transaction signature in a report. Signatures whose
// URI regex does not compile still get a Prog — their text program simply
// never matches, as if the signature were absent.
func Compile(rep *core.Report) *Bundle {
	b := &Bundle{syms: intern.NewTable(64), byMethod: map[string][]int{}}
	for i, tx := range rep.Transactions {
		b.progs = append(b.progs, b.compileTx(tx))
		b.byMethod[tx.Request.Method] = append(b.byMethod[tx.Request.Method], i)
	}
	for _, c := range b.byMethod {
		sort.SliceStable(c, func(x, y int) bool { return b.progs[c[x]].uri.spec > b.progs[c[y]].uri.spec })
	}
	return b
}

func (b *Bundle) compileTx(tx *core.Transaction) Prog {
	p := Prog{
		TxID: tx.ID,
		uri:  b.note(compileText(tx.Request.URI)),
	}
	p.reqKind = tx.Request.BodyKind
	switch p.reqKind {
	case "query":
		p.reqQuery = b.compileQuery(tx.Request.Body)
	case "json":
		p.reqJSON = b.compileJSON(tx.Request.Body)
	case "text":
		// Text bodies shaped like query strings get key/value matching
		// (siglang.QueryShapedBody), so compile both forms.
		p.reqQuery = b.compileQuery(tx.Request.Body)
		p.reqText = b.note(compileText(tx.Request.Body))
	}
	if tx.Response != nil {
		p.hasResp = true
		p.respKind = tx.Response.BodyKind
		switch p.respKind {
		case "json":
			if tx.Response.JSON != nil {
				p.respJSON = b.compileJSON(&siglang.JSON{Root: tx.Response.JSON})
			} else {
				p.respJSON = b.compileJSON(nil)
			}
		case "xml":
			p.respXML = b.compileXML(tx.Response.XML)
		}
	}
	return p
}

// note tracks the largest text program so Matcher scratch is sized once.
// JSON string-leaf programs are compiled inside compileJSON and noted
// lazily by Matcher.ensure instead.
func (b *Bundle) note(p *TextProg) *TextProg {
	if n := len(p.insts); n > b.maxPC {
		b.maxPC = n
	}
	return p
}

// NumSigs returns the number of compiled signatures.
func (b *Bundle) NumSigs() int { return len(b.progs) }

// TxID returns signature i's transaction ID.
func (b *Bundle) TxID(i int) int { return b.progs[i].TxID }

// Candidates returns the signatures of one HTTP method in the order
// trace's best-match rule tries them: the longest rendered URI regex
// first, report order among equals. The first whose URI template matches
// an entry is its best match, the most specific one. The slice is shared;
// callers must not modify it.
func (b *Bundle) Candidates(method string) []int { return b.byMethod[method] }

// Matcher executes a Bundle's programs. It owns the mutable scratch of
// the Pike VM (thread lists, generation-stamped visited marks), so each
// worker goroutine needs its own Matcher; the Bundle itself is shared.
type Matcher struct {
	b         *Bundle
	cur, next []uint32
	stack     []uint32
	mark      []uint32
	gen       uint32
	json      jsonWalk
}

// NewMatcher returns a matcher over the bundle with scratch sized for its
// largest program.
func (b *Bundle) NewMatcher() *Matcher {
	m := &Matcher{b: b}
	m.ensure(b.maxPC)
	return m
}

// ensure grows the visited-mark scratch to cover programs of n
// instructions.
func (m *Matcher) ensure(n int) {
	if n > len(m.mark) {
		m.mark = make([]uint32, n)
		m.gen = 0
	}
}

// bump starts a new visited generation, clearing marks only on wraparound.
func (m *Matcher) bump() {
	m.gen++
	if m.gen == 0 {
		for i := range m.mark {
			m.mark[i] = 0
		}
		m.gen = 1
	}
}

// MatchURI reports whether url matches signature i's URI template: the
// per-entry pre-filter of trace's best-match rule, the VM form of
// matching the rendered regex.
func (m *Matcher) MatchURI(i int, url string) bool {
	return m.matchText(m.b.progs[i].uri, url)
}

// AccountURI returns the Table 2 byte accounting of a url that MatchURI
// accepted for signature i.
func (b *Bundle) AccountURI(i int, url string) siglang.ByteStats {
	return siglang.AccountText(b.progs[i].uri.lits, url)
}

// MatchRequestBody validates a request body against signature i,
// dispatching on the signature's body kind; a body the signature does not
// model is valid and all its bytes are unaccounted (None).
func (m *Matcher) MatchRequestBody(i int, body string) (bool, siglang.ByteStats) {
	if body == "" {
		return true, siglang.ByteStats{}
	}
	p := &m.b.progs[i]
	switch p.reqKind {
	case "query":
		return m.b.matchQuery(p.reqQuery, body)
	case "json":
		ok, st, err := m.matchJSON(p.reqJSON, body)
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	case "text":
		if siglang.QueryShapedBody(body) {
			return m.b.matchQuery(p.reqQuery, body)
		}
		return m.matchTextStats(p.reqText, body)
	default:
		// Signature has no body model: all bytes unaccounted.
		return true, siglang.ByteStats{None: len(body)}
	}
}

// MatchResponseBody validates a response body against signature i; a
// body of another type than the signature models is valid and all its
// bytes are unaccounted (None).
func (m *Matcher) MatchResponseBody(i int, respType, body string) (bool, siglang.ByteStats) {
	p := &m.b.progs[i]
	if !p.hasResp || body == "" {
		return true, siglang.ByteStats{}
	}
	switch {
	case p.respKind == "json" && respType == "json":
		ok, st, err := m.matchJSON(p.respJSON, body)
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	case p.respKind == "xml" && respType == "xml":
		ok, st, err := m.b.matchXML(p.respXML, []byte(body))
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	default:
		return true, siglang.ByteStats{None: len(body)}
	}
}
