// Package report renders analysis results for human and machine
// consumption: a text summary of every reconstructed transaction (the CLI
// default), machine-readable JSON, and a Graphviz DOT rendering of the
// inter-transaction dependency graph like the figures in Tables 3 and 4.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/obs"
	"extractocol/internal/siglang"
	"extractocol/internal/txdep"
)

// Text renders the full report as human-readable text.
func Text(r *core.Report) string {
	return TextOpts(r, Options{})
}

// TextOpts is Text with optional report layers enabled. The zero Options
// value renders exactly what Text renders.
//
// The text is appended to a pooled buffer in one pass, every signature
// rendered in place, and copied out as a string.
func TextOpts(r *core.Report, o Options) string {
	w := newWriter()
	w.text(r, o)
	s := string(w.b)
	w.free()
	return s
}

func (w *writer) text(r *core.Report, o Options) {
	w.add("Extractocol report for ", r.AppName, " (", r.Package, ")\n  transactions: ")
	w.int(int64(len(r.Transactions)))
	w.add("   pairs: ")
	w.int(int64(r.PairCount()))
	w.add("   dependencies: ")
	w.int(int64(len(r.Deps)))
	w.add("\n  slice fraction: ")
	w.b = strconv.AppendFloat(w.b, r.SliceFraction*100, 'f', 1, 64)
	w.add("%   analysis time: ", r.Duration.Round(time.Millisecond).String(), "\n")
	if r.Profile != nil && len(r.Profile.Phases) > 0 {
		w.add("  phases:")
		for _, ph := range r.Profile.Phases {
			w.add(" ", ph.Name, "=", time.Duration(ph.DurationNS).Round(time.Microsecond).String())
		}
		w.add("\n")
	}
	// Degradation events only appear when something was dropped, so healthy
	// runs render byte-identically with or without budgets configured.
	if len(r.Diagnostics) > 0 {
		w.add("  diagnostics: ")
		w.int(int64(len(r.Diagnostics)))
		w.add(" degradation event(s)\n")
		for _, d := range r.Diagnostics {
			w.add("    ", d.String(), "\n")
		}
	}
	w.add("\n")
	for _, tx := range r.Transactions {
		w.textTx(r, tx, o)
	}
}

func (w *writer) textTx(r *core.Report, tx *core.Transaction, o Options) {
	req := tx.Request
	w.add("#")
	w.int(int64(tx.ID))
	w.add(" ", req.Method, " ")
	w.b = siglang.AppendRegexBody(w.b, req.URI)
	w.add("\n")
	for _, h := range req.Headers {
		w.add("    header ", h.Key, ": ")
		w.b = siglang.AppendRegexBody(w.b, h.Val)
		w.add("\n")
	}
	if req.BodyKind != "" {
		w.add("    body (", req.BodyKind, "): ")
		if j, ok := req.Body.(*siglang.JSON); ok {
			w.b = siglang.AppendJSONSchema(w.b, j)
		} else {
			w.b = siglang.AppendRegexBody(w.b, req.Body)
		}
		w.add("\n")
	}
	if resp := tx.Response; resp != nil && resp.HasBody() {
		w.add("    response (", resp.BodyKind, "): ")
		switch resp.BodyKind {
		case "json":
			w.strs = siglang.AppendKeywords(w.strs[:0], &siglang.JSON{Root: resp.JSON})
			w.add("keys ")
			w.join(w.strs)
		case "xml":
			w.strs = siglang.AppendKeywords(w.strs[:0], &siglang.XML{Root: resp.XML})
			w.add("tags ")
			w.join(w.strs)
		default:
			w.add("raw")
		}
		w.add("\n")
		switch {
		case tx.SharedHandler:
			w.add("    pairing: shared response handler (many-to-one)\n")
		case tx.OneToOne && tx.FlowConfirmed:
			w.add("    pairing: one-to-one (flow-confirmed)\n")
		case tx.OneToOne:
			w.add("    pairing: one-to-one\n")
		}
	}
	if len(tx.Sinks) > 0 {
		w.add("    response goes to: ")
		w.join(tx.Sinks)
		w.add("\n")
	}
	if len(tx.Sources) > 0 {
		w.add("    request data from: ")
		w.join(tx.Sources)
		w.add("\n")
	}
	if o.Security {
		if info := SecurityFor(tx); info != nil {
			w.add("    security: ", securityLine(info), "\n")
		}
	}
	// One line per dependency feeding this transaction, each distinct
	// line once: a line equal to one already kept is taken back.
	var buf [8]int
	ends := buf[:0] // where each kept line ends
	first := len(w.b)
	for _, d := range r.Deps {
		if d.To != tx.ID {
			continue
		}
		at := len(w.b)
		w.add("    uses tx #")
		w.int(int64(d.From))
		w.add("'s response")
		if d.FromField != "" {
			w.add(" field ", d.FromField)
		}
		w.add(" for ", d.ToPart, "\n")
		if w.repeats(first, ends, at) {
			w.b = w.b[:at]
			continue
		}
		ends = append(ends, len(w.b))
	}
}

// repeats reports whether the line from at to the end of w.b equals one
// of the lines that start at first and end at ends, one after another.
func (w *writer) repeats(first int, ends []int, at int) bool {
	line := w.b[at:]
	for _, end := range ends {
		if bytes.Equal(w.b[first:end], line) {
			return true
		}
		first = end
	}
	return false
}

// jsonDep is the machine-readable dependency edge shape.
type jsonDep struct {
	From      int    `json:"from"`
	To        int    `json:"to"`
	FromField string `json:"from_field,omitempty"`
	ToPart    string `json:"to_part"`
	Via       string `json:"via"`
}

// JSON renders the report as indented JSON.
func JSON(r *core.Report) ([]byte, error) {
	return JSONOpts(r, Options{})
}

// JSONOpts is JSON with optional report layers enabled. The zero Options
// value renders exactly what JSON renders.
//
// The indented document is appended to a pooled buffer in one pass and
// copied out at its exact length. Its bytes are those json.MarshalIndent
// with an indent of two spaces makes of the struct shape that the package
// tests keep as the oracle: members in the struct's order, empty optional
// members left out, header keys sorted with a repeated key's last value
// kept, an empty transaction list as null, strings escaped by
// encoding/json's rules. The profile, the diagnostics and the security
// verdicts are written the same way, as json.MarshalIndent writes
// obs.Profile, budget.Diagnostic and SecurityInfo. Each signature string
// is rendered into one reused scratch buffer and quoted from there.
func JSONOpts(r *core.Report, o Options) ([]byte, error) {
	w := newWriter()
	w.report(r, o)
	return w.done()
}

// ProfileJSON renders just the per-phase observability breakdown of a
// report as indented JSON — the payload behind the -profile CLI flag.
func ProfileJSON(r *core.Report) ([]byte, error) {
	w := newWriter()
	w.open('{')
	w.key("package")
	w.str(r.Package)
	w.key("app")
	w.str(r.AppName)
	w.key("duration_ms")
	w.int(r.Duration.Milliseconds())
	w.key("profile")
	w.profile(r.Profile)
	w.close('}')
	return w.done()
}

// writers keeps render buffers between calls.
var writers = sync.Pool{New: func() any { return new(writer) }}

// writer appends one rendered document to b: the text report, or an
// indented JSON document.
type writer struct {
	b       []byte
	scratch []byte   // one signature string, before it is quoted into b
	strs    []string // keywords, or a map's keys in order
	depth   int      // nesting level of the JSON members or elements being written
	empty   bool     // the innermost open JSON object or array has nothing in it yet
	err     error
}

func newWriter() *writer {
	w := writers.Get().(*writer)
	w.b, w.scratch = w.b[:0], w.scratch[:0]
	w.depth, w.empty, w.err = 0, false, nil
	return w
}

// free returns w to the pool, keeping no report's strings alive.
func (w *writer) free() {
	clear(w.strs[:cap(w.strs)])
	writers.Put(w)
}

// done copies the JSON document out at its exact length, or returns the
// first error, and frees w.
func (w *writer) done() ([]byte, error) {
	var out []byte
	err := w.err
	if err == nil {
		out = make([]byte, len(w.b))
		copy(out, w.b)
	}
	w.free()
	return out, err
}

// add appends text verbatim.
func (w *writer) add(parts ...string) {
	for _, s := range parts {
		w.b = append(w.b, s...)
	}
}

// join appends ss separated by ", ".
func (w *writer) join(ss []string) {
	for i, s := range ss {
		if i > 0 {
			w.b = append(w.b, ", "...)
		}
		w.b = append(w.b, s...)
	}
}

const jsonIndent = "                " // 2 spaces per level, deeper than report nests

func (w *writer) report(r *core.Report, o Options) {
	w.open('{')
	w.key("package")
	w.str(r.Package)
	w.key("app")
	w.str(r.AppName)
	w.key("transactions")
	if len(r.Transactions) == 0 {
		w.null()
	} else {
		w.open('[')
		for _, tx := range r.Transactions {
			w.next()
			w.tx(tx, o)
		}
		w.close(']')
	}
	if len(r.Deps) > 0 {
		w.key("dependencies")
		w.open('[')
		for _, d := range r.Deps {
			w.next()
			w.dep(d)
		}
		w.close(']')
	}
	w.key("pairs")
	w.int(int64(r.PairCount()))
	w.key("slice_fraction")
	w.float(r.SliceFraction)
	w.key("duration_ms")
	w.int(r.Duration.Milliseconds())
	if r.Profile != nil {
		w.key("profile")
		w.profile(r.Profile)
	}
	if len(r.Diagnostics) > 0 {
		w.key("diagnostics")
		w.open('[')
		for _, d := range r.Diagnostics {
			w.next()
			w.diagnostic(d)
		}
		w.close(']')
	}
	w.close('}')
}

func (w *writer) tx(tx *core.Transaction, o Options) {
	req := tx.Request
	w.open('{')
	w.key("id")
	w.int(int64(tx.ID))
	w.key("method")
	w.str(req.Method)
	w.key("uri_regex")
	w.scratch = siglang.AppendRegex(w.scratch[:0], req.URI)
	w.quoteScratch()
	if len(req.Headers) > 0 {
		w.key("headers")
		w.headers(req.Headers)
	}
	w.optStr("body_kind", req.BodyKind)
	switch req.BodyKind {
	case "json":
		w.scratch = siglang.AppendJSONSchema(w.scratch[:0], req.Body)
		w.optScratch("body_schema")
	case "":
	default:
		w.scratch = siglang.AppendRegex(w.scratch[:0], req.Body)
		w.optScratch("body_regex")
	}
	if resp := tx.Response; resp != nil && resp.HasBody() {
		w.optStr("resp_kind", resp.BodyKind)
		switch resp.BodyKind {
		case "json":
			doc := &siglang.JSON{Root: resp.JSON}
			w.strs = siglang.AppendKeywords(w.strs[:0], doc)
			w.optStrs("resp_keys", w.strs)
			w.scratch = siglang.AppendJSONSchema(w.scratch[:0], doc)
			w.optScratch("resp_schema")
		case "xml":
			doc := &siglang.XML{Root: resp.XML}
			w.strs = siglang.AppendKeywords(w.strs[:0], doc)
			w.optStrs("resp_keys", w.strs)
			w.scratch = siglang.AppendDTD(w.scratch[:0], doc)
			w.optScratch("resp_dtd")
		}
	}
	w.key("paired")
	w.b = strconv.AppendBool(w.b, tx.Paired)
	w.optStrs("sinks", tx.Sinks)
	w.optStrs("sources", tx.Sources)
	w.key("demarcation_point")
	w.str(tx.DP)
	if o.Security {
		if info := SecurityFor(tx); info != nil {
			w.key("security")
			w.security(info)
		}
	}
	w.close('}')
}

// headers writes request headers as the map the struct shape held: keys
// sorted, and a key sent twice keeps its last value.
func (w *writer) headers(hs []siglang.KV) {
	var buf [8]int
	order := buf[:0]
	for i := range hs {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(hs[a].Key, hs[b].Key) })
	w.open('{')
	for i, h := range order {
		if i+1 < len(order) && hs[order[i+1]].Key == hs[h].Key {
			continue
		}
		w.next()
		w.str(hs[h].Key)
		w.b = append(w.b, ": "...)
		w.scratch = siglang.AppendRegexBody(w.scratch[:0], hs[h].Val)
		w.quoteScratch()
	}
	w.close('}')
}

func (w *writer) dep(d txdep.Dep) {
	w.open('{')
	w.key("from")
	w.int(int64(d.From))
	w.key("to")
	w.int(int64(d.To))
	w.optStr("from_field", d.FromField)
	w.key("to_part")
	w.str(d.ToPart)
	w.key("via")
	w.str(d.Via)
	w.close('}')
}

// profile writes p as json.MarshalIndent writes an *obs.Profile: map
// members sorted by key and left out when empty, a nil phase list or
// histogram as null.
func (w *writer) profile(p *obs.Profile) {
	if p == nil {
		w.null()
		return
	}
	w.open('{')
	w.key("total_ns")
	w.int(p.TotalNS)
	w.key("phases")
	if p.Phases == nil {
		w.null()
	} else {
		w.open('[')
		for _, ph := range p.Phases {
			w.next()
			w.open('{')
			w.key("name")
			w.str(ph.Name)
			w.key("duration_ns")
			w.int(ph.DurationNS)
			w.close('}')
		}
		w.close(']')
	}
	writeMap(w, "counters", p.Counters, w.int)
	writeMap(w, "gauges", p.Gauges, w.float)
	writeMap(w, "hists", p.Hists, w.hist)
	w.close('}')
}

// writeMap writes m as a member the struct shape marks omitempty, keys
// escaped and in order as encoding/json writes a map.
func writeMap[V any](w *writer, name string, m map[string]V, val func(V)) {
	if len(m) == 0 {
		return
	}
	w.strs = w.strs[:0]
	for k := range m {
		w.strs = append(w.strs, k)
	}
	slices.Sort(w.strs)
	w.key(name)
	w.open('{')
	for _, k := range w.strs {
		w.next()
		w.str(k)
		w.b = append(w.b, ": "...)
		val(m[k])
	}
	w.close('}')
}

func (w *writer) hist(h *obs.HistSnapshot) {
	if h == nil {
		w.null()
		return
	}
	w.open('{')
	w.key("count")
	w.int(h.Count)
	w.key("sum_ns")
	w.int(h.SumNS)
	w.key("max_ns")
	w.int(h.MaxNS)
	w.key("p50_ns")
	w.int(h.P50NS)
	w.key("p90_ns")
	w.int(h.P90NS)
	w.key("p99_ns")
	w.int(h.P99NS)
	if len(h.Buckets) > 0 {
		w.key("buckets")
		w.open('[')
		for _, bk := range h.Buckets {
			w.next()
			w.open('{')
			w.key("i")
			w.int(int64(bk.Idx))
			w.key("n")
			w.int(bk.N)
			w.close('}')
		}
		w.close(']')
	}
	w.close('}')
}

func (w *writer) diagnostic(d budget.Diagnostic) {
	w.open('{')
	w.key("phase")
	w.str(d.Phase)
	w.key("kind")
	w.str(d.Kind)
	w.key("site")
	w.str(d.Site)
	w.optStr("detail", d.Detail)
	w.optStrs("flight", d.Flight)
	w.close('}')
}

func (w *writer) security(info *SecurityInfo) {
	w.open('{')
	w.optStr("scheme", info.Scheme)
	if info.Cleartext {
		w.key("cleartext")
		w.b = append(w.b, "true"...)
	}
	w.optStrs("credential_keys", info.CredentialKeys)
	w.optStrs("pii_keys", info.PIIKeys)
	w.close('}')
}

// open starts an object or array one level deeper.
func (w *writer) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends the innermost object or array; an empty one stays "{}" or
// "[]" on one line.
func (w *writer) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// next starts a member or element on its own line.
func (w *writer) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

func (w *writer) newline() {
	w.b = append(w.b, '\n')
	w.b = append(w.b, jsonIndent[:2*w.depth]...)
}

// key starts a member whose name needs no escaping.
func (w *writer) key(name string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *writer) null() { w.b = append(w.b, "null"...) }

func (w *writer) str(s string) { w.b = appendJSONString(w.b, s) }

// quoteScratch writes the signature string rendered into w.scratch.
func (w *writer) quoteScratch() { w.b = appendJSONString(w.b, w.scratch) }

func (w *writer) int(v int64) { w.b = strconv.AppendInt(w.b, v, 10) }

// optStr, optScratch and optStrs write a member that the struct shape
// marks omitempty.
func (w *writer) optStr(name, s string) {
	if s != "" {
		w.key(name)
		w.str(s)
	}
}

func (w *writer) optScratch(name string) {
	if len(w.scratch) > 0 {
		w.key(name)
		w.quoteScratch()
	}
}

func (w *writer) optStrs(name string, ss []string) {
	if len(ss) == 0 {
		return
	}
	w.key(name)
	w.open('[')
	for _, s := range ss {
		w.next()
		w.str(s)
	}
	w.close(']')
}

// float writes f as encoding/json does: 'f' format, or 'e' below 1e-6 and
// from 1e21 up with the exponent's leading zero dropped. NaN and the
// infinities have no JSON form and fail the document.
func (w *writer) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// appendJSONString appends s quoted by encoding/json's rules, HTML escaping
// included: `"`, `\` and the control bytes are escaped (\b, \f, \n, \r and
// \t by name), "<", ">" and "&" become \u003c, \u003e and \u0026, each byte
// of invalid UTF-8 becomes \ufffd, and U+2028 and U+2029 are escaped.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		// Only a few bytes are converted, so the string stays on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(len(s), i+utf8.UTFMax)]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// DOT renders the inter-transaction dependency graph in Graphviz format,
// the textual analog of the dependency figures in Tables 3 and 4.
func DOT(r *core.Report) string {
	var b strings.Builder
	b.WriteString("digraph transactions {\n  rankdir=LR;\n  node [shape=box];\n")
	for _, tx := range r.Transactions {
		label := fmt.Sprintf("#%d %s %s", tx.ID, tx.Request.Method, truncate(siglang.RegexBody(tx.Request.URI), 48))
		fmt.Fprintf(&b, "  t%d [label=%q];\n", tx.ID, label)
		for _, sink := range tx.Sinks {
			fmt.Fprintf(&b, "  t%d -> %q [style=dotted];\n", tx.ID, sink)
		}
	}
	edges := map[string]bool{}
	for _, d := range r.Deps {
		key := fmt.Sprintf("t%d->t%d:%s", d.From, d.To, d.ToPart)
		if edges[key] {
			continue
		}
		edges[key] = true
		fmt.Fprintf(&b, "  t%d -> t%d [label=%q];\n", d.From, d.To,
			truncate(d.FromField+" -> "+d.ToPart, 40))
	}
	b.WriteString("}\n")
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// SummaryByPrefix groups transactions by URI prefix, reproducing the Kayak
// category table (Table 5): category prefix -> method -> count.
type PrefixGroup struct {
	Method string
	Prefix string
	Count  int
	Hosts  []string
}

// GroupByPrefix buckets transactions by the first two path segments of
// their URI literals.
func GroupByPrefix(r *core.Report) []PrefixGroup {
	type key struct{ method, prefix string }
	counts := map[key]int{}
	hosts := map[key]map[string]bool{}
	for _, tx := range r.Transactions {
		host, prefix := uriPrefix(siglang.RegexBody(tx.Request.URI))
		k := key{tx.Request.Method, prefix}
		counts[k]++
		if hosts[k] == nil {
			hosts[k] = map[string]bool{}
		}
		hosts[k][host] = true
	}
	var out []PrefixGroup
	for k, c := range counts {
		g := PrefixGroup{Method: k.method, Prefix: k.prefix, Count: c}
		for h := range hosts[k] {
			g.Hosts = append(g.Hosts, h)
		}
		sort.Strings(g.Hosts)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Prefix != out[j].Prefix {
			return out[i].Prefix < out[j].Prefix
		}
		return out[i].Method < out[j].Method
	})
	return out
}

// uriPrefix extracts host and the first two path segments from a regex
// fragment (unescaping regex quoting first).
func uriPrefix(re string) (host, prefix string) {
	s := strings.NewReplacer(`\.`, ".", `\?`, "?", `\/`, "/").Replace(re)
	s = strings.TrimPrefix(strings.TrimPrefix(s, "https://"), "http://")
	if i := strings.IndexAny(s, "?("); i >= 0 {
		s = s[:i]
	}
	parts := strings.SplitN(s, "/", 4)
	host = parts[0]
	if len(parts) >= 3 {
		return host, "/" + parts[1] + "/" + parts[2]
	}
	if len(parts) == 2 {
		return host, "/" + parts[1]
	}
	return host, "/"
}
