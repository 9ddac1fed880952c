package trace

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"

	"extractocol/internal/core"
	"extractocol/internal/siglang"
)

// LabeledEntry is a generated trace entry plus the ground-truth matching
// verdict: the transaction ID of the signature that should classify it, or
// 0 when no signature should (near-miss mutants, failed exchanges).
type LabeledEntry struct {
	Entry
	// WantID is the expected best-match transaction ID (0 = none). It is
	// computed from the signatures' rendered regular expressions — method
	// equality, regexp match, longest-regex tie-break — independently of
	// the compiled matcher, so tests assert exact verdicts rather than one
	// matcher's opinion of another.
	WantID int
}

// Entries strips the labels, for feeding the matchers.
func Entries(labeled []LabeledEntry) []Entry {
	out := make([]Entry, len(labeled))
	for i, le := range labeled {
		out[i] = le.Entry
	}
	return out
}

// RandEntries derives n labeled traffic entries from a report's
// signatures with a seeded splitmix64 stream: known-matching entries
// synthesized from each signature's URI template and body model,
// interleaved with deliberate near-misses (unknown methods, newline
// injection, digit corruption, truncation, failed statuses). Labels come
// from the regex specification, not from a matcher, so the same corpus
// can judge the compiled matcher and its interpretive test oracle.
func RandEntries(seed uint64, rep *core.Report, n int) []LabeledEntry {
	r := &entropy{state: seed ^ 0xE7037ED1A0B428DB}
	r.next()
	lab := newLabeler(rep)
	out := make([]LabeledEntry, 0, n)
	for i := 0; len(out) < n; i++ {
		if len(rep.Transactions) == 0 {
			break
		}
		tx := rep.Transactions[r.intn(len(rep.Transactions))]
		e := genEntry(r, tx, i)
		switch r.intn(5) {
		case 0:
			mutate(r, &e)
		case 1:
			// A second mutation sometimes stacks, sometimes repairs nothing.
			mutate(r, &e)
			if r.intn(2) == 0 {
				mutate(r, &e)
			}
		}
		out = append(out, LabeledEntry{Entry: e, WantID: lab.label(e)})
	}
	return out
}

// genEntry synthesizes one entry that the transaction's signature should
// match: a URL drawn from the URI template, a body drawn from the body
// model, a response drawn from the response signature.
func genEntry(r *entropy, tx *core.Transaction, seq int) Entry {
	e := Entry{
		Seq:     seq,
		Method:  tx.Request.Method,
		URL:     genText(r, tx.Request.URI),
		Status:  200,
		RouteID: fmt.Sprintf("rand-%d", seq),
	}
	switch tx.Request.BodyKind {
	case "query":
		e.ReqBody = genQuery(r, tx.Request.Body)
	case "json":
		e.ReqBody = genJSON(r, tx.Request.Body)
	case "text":
		e.ReqBody = genText(r, tx.Request.Body)
	}
	if tx.Response != nil {
		switch tx.Response.BodyKind {
		case "json":
			e.RespType = "json"
			if tx.Response.JSON != nil {
				e.RespBody = genJSON(r, tx.Response.JSON)
			} else {
				e.RespBody = "{}"
			}
		case "xml":
			e.RespType = "xml"
			e.RespBody = genXML(r, tx.Response.XML)
		case "text":
			e.RespType = "text"
			e.RespBody = "ok-" + r.word()
		}
	}
	return e
}

// mutate turns a matching entry into a near-miss (or a should-be-skipped
// failure). Labels are recomputed afterwards, so a mutation that happens
// to keep the entry matching is simply labeled as such.
func mutate(r *entropy, e *Entry) {
	switch r.intn(5) {
	case 0:
		e.Method = "TRACE" // no generated signature uses it
	case 1:
		e.URL += "\n" // defeats ".*" and the '$' anchor alike
	case 2:
		// Corrupt the first digit: breaks "[0-9]+" spans.
		if i := strings.IndexFunc(e.URL, func(c rune) bool { return c >= '0' && c <= '9' }); i >= 0 {
			e.URL = e.URL[:i] + "x" + e.URL[i+1:]
		} else {
			e.URL += "?junk"
		}
	case 3:
		// Truncate the tail: breaks trailing literals.
		if len(e.URL) > 1 {
			e.URL = e.URL[:len(e.URL)-1]
		}
	case 4:
		e.Status = 500 // failed exchange: skipped entirely
	}
}

// labeler computes ground-truth verdicts straight from the rendered
// regular expressions.
type labeler struct {
	sigs []labelSig
}

type labelSig struct {
	id     int
	method string
	re     *regexp.Regexp
	spec   int
}

func newLabeler(rep *core.Report) *labeler {
	l := &labeler{}
	for _, tx := range rep.Transactions {
		re, err := siglang.Compile(tx.Request.URI)
		if err != nil {
			continue
		}
		l.sigs = append(l.sigs, labelSig{
			id:     tx.ID,
			method: tx.Request.Method,
			re:     re,
			spec:   len(re.String()),
		})
	}
	return l
}

// label returns the transaction ID the matchers must report for e: the
// method- and regex-matching signature with the longest rendered regex,
// or 0 for failed or unmatched entries.
func (l *labeler) label(e Entry) int {
	if e.Status >= 400 {
		return 0
	}
	best := -1
	for i := range l.sigs {
		s := &l.sigs[i]
		if s.method != e.Method || !s.re.MatchString(e.URL) {
			continue
		}
		if best < 0 || s.spec > l.sigs[best].spec {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return l.sigs[best].id
}

// ---- generation from signature trees ----

// genText draws a string the signature's regular expression accepts (when
// its wildcards are filled benignly).
func genText(r *entropy, s siglang.Sig) string {
	var b strings.Builder
	writeText(r, s, &b)
	return b.String()
}

func writeText(r *entropy, s siglang.Sig, b *strings.Builder) {
	switch v := s.(type) {
	case nil:
		b.WriteString(r.word())
	case *siglang.Lit:
		b.WriteString(v.Val)
	case *siglang.Unknown:
		switch v.Type {
		case siglang.VInt:
			fmt.Fprintf(b, "%d", r.intn(100000))
		case siglang.VBool:
			b.WriteString([]string{"true", "false"}[r.intn(2)])
		default:
			b.WriteString(r.word())
		}
	case *siglang.Concat:
		for _, p := range v.Parts {
			writeText(r, p, b)
		}
	case *siglang.Rep:
		for i, reps := 0, r.intn(3); i < reps; i++ {
			writeText(r, v.Body, b)
		}
	case *siglang.Or:
		if len(v.Alts) > 0 {
			writeText(r, v.Alts[r.intn(len(v.Alts))], b)
		}
	default:
		b.WriteString(r.word())
	}
}

// genQuery draws a query body containing every signature-known key, plus
// an occasional unknown pair.
func genQuery(r *entropy, s siglang.Sig) string {
	keys := siglang.Keywords(s)
	var pairs []string
	for _, k := range keys {
		pairs = append(pairs, k+"="+r.word())
	}
	if r.intn(3) == 0 {
		pairs = append(pairs, "zz_extra="+r.word())
	}
	return strings.Join(pairs, "&")
}

// genJSON draws a payload whose constant keys cover the signature's.
func genJSON(r *entropy, s siglang.Sig) string {
	v := genJSONValue(r, s, 0)
	data, err := json.Marshal(v)
	if err != nil {
		return "{}"
	}
	return string(data)
}

func genJSONValue(r *entropy, s siglang.Sig, depth int) any {
	if depth > 8 {
		return r.word()
	}
	switch v := s.(type) {
	case nil:
		return r.word()
	case *siglang.JSON:
		return genJSONValue(r, v.Root, depth+1)
	case *siglang.Obj:
		m := map[string]any{}
		if v == nil {
			return m
		}
		for _, kv := range v.Pairs {
			if kv.Dyn {
				m["dyn_"+r.word()] = genJSONValue(r, kv.Val, depth+1)
				continue
			}
			m[kv.Key] = genJSONValue(r, kv.Val, depth+1)
		}
		if r.intn(4) == 0 {
			m["zz_unmodeled"] = r.intn(100)
		}
		return m
	case *siglang.Arr:
		var arr []any
		for i, n := 0, 1+r.intn(2); i < n; i++ {
			for _, e := range v.Elems {
				arr = append(arr, genJSONValue(r, e, depth+1))
			}
		}
		if arr == nil {
			arr = []any{}
		}
		return arr
	case *siglang.Or:
		if len(v.Alts) > 0 {
			return genJSONValue(r, v.Alts[r.intn(len(v.Alts))], depth+1)
		}
		return nil
	case *siglang.Lit:
		if v.Num {
			var f float64
			if _, err := fmt.Sscanf(v.Val, "%g", &f); err == nil {
				return f
			}
		}
		switch v.Val {
		case "true":
			return true
		case "false":
			return false
		}
		return v.Val
	case *siglang.Unknown:
		switch v.Type {
		case siglang.VInt:
			return r.intn(100000)
		case siglang.VBool:
			return r.intn(2) == 0
		default:
			return r.word()
		}
	default:
		return genText(r, s)
	}
}

// genXML renders a payload element tree covering the signature's tags and
// attributes.
func genXML(r *entropy, root *siglang.Elem) string {
	if root == nil {
		return "<root/>"
	}
	var b strings.Builder
	writeXML(r, root, &b, 0)
	return b.String()
}

func writeXML(r *entropy, e *siglang.Elem, b *strings.Builder, depth int) {
	tag := e.Tag
	if tag == "*" {
		// The wildcard document root: wrap the children in a carrier tag.
		b.WriteString("<doc>")
		for _, c := range e.Children {
			writeXML(r, c, b, depth+1)
		}
		b.WriteString("</doc>")
		return
	}
	b.WriteString("<" + tag)
	// Attribute order must be deterministic for a seeded generator.
	attrs := append([]siglang.KV(nil), e.Attrs...)
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%q", a.Key, r.word())
	}
	b.WriteString(">")
	for _, c := range e.Children {
		writeXML(r, c, b, depth+1)
	}
	if e.Text != nil {
		b.WriteString(r.word())
	}
	b.WriteString("</" + tag + ">")
}

// entropy is the same splitmix64 stream the corpus generator uses, local
// to trace so the package keeps its import direction (corpus must not be
// needed to replay traffic).
type entropy struct{ state uint64 }

func (r *entropy) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *entropy) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

var entropyWords = []string{
	"alpha", "bravo", "delta", "echo", "kilo", "lima", "nova", "omega",
	"pixel", "quartz", "raven", "sonic", "tango", "umbra", "vexel", "wharf",
}

func (r *entropy) word() string {
	return entropyWords[r.intn(len(entropyWords))]
}
