// Package report renders analysis results for human and machine
// consumption: a text summary of every reconstructed transaction (the CLI
// default), machine-readable JSON, and a Graphviz DOT rendering of the
// inter-transaction dependency graph like the figures in Tables 3 and 4.
package report

import (
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
func TextOpts(r *core.Report, o Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extractocol report for %s (%s)\n", r.AppName, r.Package)
	fmt.Fprintf(&b, "  transactions: %d   pairs: %d   dependencies: %d\n",
		len(r.Transactions), r.PairCount(), len(r.Deps))
	fmt.Fprintf(&b, "  slice fraction: %.1f%%   analysis time: %s\n",
		r.SliceFraction*100, r.Duration.Round(1000000))
	if r.Profile != nil && len(r.Profile.Phases) > 0 {
		b.WriteString("  phases:")
		for _, ph := range r.Profile.Phases {
			fmt.Fprintf(&b, " %s=%s", ph.Name, time.Duration(ph.DurationNS).Round(time.Microsecond))
		}
		b.WriteString("\n")
	}
	// Degradation events only appear when something was dropped, so healthy
	// runs render byte-identically with or without budgets configured.
	if len(r.Diagnostics) > 0 {
		fmt.Fprintf(&b, "  diagnostics: %d degradation event(s)\n", len(r.Diagnostics))
		for _, d := range r.Diagnostics {
			fmt.Fprintf(&b, "    %s\n", d)
		}
	}
	b.WriteString("\n")

	for _, tx := range r.Transactions {
		fmt.Fprintf(&b, "#%d %s %s\n", tx.ID, tx.Request.Method, siglang.RegexBody(tx.Request.URI))
		if len(tx.Request.Headers) > 0 {
			for _, h := range tx.Request.Headers {
				fmt.Fprintf(&b, "    header %s: %s\n", h.Key, siglang.RegexBody(h.Val))
			}
		}
		if tx.Request.BodyKind != "" {
			fmt.Fprintf(&b, "    body (%s): %s\n", tx.Request.BodyKind, bodyText(tx.Request.Body))
		}
		if tx.Response != nil && tx.Response.HasBody() {
			fmt.Fprintf(&b, "    response (%s): %s\n", tx.Response.BodyKind, respText(tx))
			switch {
			case tx.SharedHandler:
				b.WriteString("    pairing: shared response handler (many-to-one)\n")
			case tx.OneToOne && tx.FlowConfirmed:
				b.WriteString("    pairing: one-to-one (flow-confirmed)\n")
			case tx.OneToOne:
				b.WriteString("    pairing: one-to-one\n")
			}
		}
		if len(tx.Sinks) > 0 {
			fmt.Fprintf(&b, "    response goes to: %s\n", strings.Join(tx.Sinks, ", "))
		}
		if len(tx.Sources) > 0 {
			fmt.Fprintf(&b, "    request data from: %s\n", strings.Join(tx.Sources, ", "))
		}
		if o.Security {
			if info := SecurityFor(tx); info != nil {
				fmt.Fprintf(&b, "    security: %s\n", securityLine(info))
			}
		}
		seen := map[string]bool{}
		for _, d := range depsFor(r, tx.ID) {
			line := fmt.Sprintf("    uses tx #%d's %s for %s\n", d.From, field(d.FromField), d.ToPart)
			if seen[line] {
				continue
			}
			seen[line] = true
			b.WriteString(line)
		}
	}
	return b.String()
}

func field(f string) string {
	if f == "" {
		return "response"
	}
	return "response field " + f
}

func bodyText(s siglang.Sig) string {
	if j, ok := s.(*siglang.JSON); ok {
		return siglang.JSONSchema(j)
	}
	return siglang.RegexBody(s)
}

func respText(tx *core.Transaction) string {
	switch tx.Response.BodyKind {
	case "json":
		return "keys " + strings.Join(siglang.Keywords(&siglang.JSON{Root: tx.Response.JSON}), ", ")
	case "xml":
		return "tags " + strings.Join(siglang.Keywords(&siglang.XML{Root: tx.Response.XML}), ", ")
	default:
		return "raw"
	}
}

func depsFor(r *core.Report, id int) []txdep.Dep {
	var out []txdep.Dep
	for _, d := range r.Deps {
		if d.To == id {
			out = append(out, d)
		}
	}
	return out
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

// jsonBufs keeps JSONOpts' render buffers between calls.
var jsonBufs = sync.Pool{New: func() any { return new([]byte) }}

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
// verdicts go through json.MarshalIndent with their member's indentation
// as prefix.
func JSONOpts(r *core.Report, o Options) ([]byte, error) {
	bp := jsonBufs.Get().(*[]byte)
	w := jsonWriter{b: (*bp)[:0]}
	w.report(r, o)
	var out []byte
	if w.err == nil {
		out = make([]byte, len(w.b))
		copy(out, w.b)
	}
	*bp = w.b
	jsonBufs.Put(bp)
	return out, w.err
}

// jsonWriter appends one indented JSON document to b.
type jsonWriter struct {
	b     []byte
	depth int  // nesting level of the members or elements being written
	empty bool // the innermost open object or array has nothing in it yet
	err   error
}

const jsonIndent = "                " // 2 spaces per level, deeper than report nests

func (w *jsonWriter) report(r *core.Report, o Options) {
	w.open('{')
	w.key("package")
	w.str(r.Package)
	w.key("app")
	w.str(r.AppName)
	w.key("transactions")
	if len(r.Transactions) == 0 {
		w.b = append(w.b, "null"...)
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
		w.marshal(r.Profile)
	}
	if len(r.Diagnostics) > 0 {
		w.key("diagnostics")
		w.marshal(r.Diagnostics)
	}
	w.close('}')
}

func (w *jsonWriter) tx(tx *core.Transaction, o Options) {
	req := tx.Request
	w.open('{')
	w.key("id")
	w.int(int64(tx.ID))
	w.key("method")
	w.str(req.Method)
	w.key("uri_regex")
	w.str(tx.URIRegex())
	if len(req.Headers) > 0 {
		w.key("headers")
		w.headers(req.Headers)
	}
	w.optStr("body_kind", req.BodyKind)
	switch req.BodyKind {
	case "json":
		w.optStr("body_schema", siglang.JSONSchema(req.Body))
	case "":
	default:
		w.optStr("body_regex", siglang.Regex(req.Body))
	}
	if resp := tx.Response; resp != nil && resp.HasBody() {
		w.optStr("resp_kind", resp.BodyKind)
		switch resp.BodyKind {
		case "json":
			doc := &siglang.JSON{Root: resp.JSON}
			w.optStrs("resp_keys", siglang.Keywords(doc))
			w.optStr("resp_schema", siglang.JSONSchema(doc))
		case "xml":
			doc := &siglang.XML{Root: resp.XML}
			w.optStrs("resp_keys", siglang.Keywords(doc))
			w.optStr("resp_dtd", siglang.DTD(doc))
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
			w.marshal(info)
		}
	}
	w.close('}')
}

// headers writes request headers as the map the struct shape held: keys
// sorted, and a key sent twice keeps its last value.
func (w *jsonWriter) headers(hs []siglang.KV) {
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
		w.b = appendJSONString(w.b, hs[h].Key)
		w.b = append(w.b, ": "...)
		w.str(siglang.RegexBody(hs[h].Val))
	}
	w.close('}')
}

func (w *jsonWriter) dep(d txdep.Dep) {
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

// open starts an object or array one level deeper.
func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends the innermost object or array; an empty one stays "{}" or
// "[]" on one line.
func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// next starts a member or element on its own line.
func (w *jsonWriter) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

func (w *jsonWriter) newline() {
	w.b = append(w.b, '\n')
	w.b = append(w.b, jsonIndent[:2*w.depth]...)
}

// key starts a member whose name needs no escaping.
func (w *jsonWriter) key(name string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *jsonWriter) str(s string) { w.b = appendJSONString(w.b, s) }

func (w *jsonWriter) int(v int64) { w.b = strconv.AppendInt(w.b, v, 10) }

// optStr and optStrs write a member that the struct shape marks omitempty.
func (w *jsonWriter) optStr(name, s string) {
	if s != "" {
		w.key(name)
		w.str(s)
	}
}

func (w *jsonWriter) optStrs(name string, ss []string) {
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
func (w *jsonWriter) float(f float64) {
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

// marshal writes v through json.MarshalIndent, indented to sit at the
// current member.
func (w *jsonWriter) marshal(v any) {
	out, err := json.MarshalIndent(v, jsonIndent[:2*w.depth], "  ")
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.b = append(w.b, out...)
}

// appendJSONString appends s quoted by encoding/json's rules, HTML escaping
// included: `"`, `\` and the control bytes are escaped (\b, \f, \n, \r and
// \t by name), "<", ">" and "&" become \u003c, \u003e and \u0026, each byte
// of invalid UTF-8 becomes \ufffd, and U+2028 and U+2029 are escaped.
func appendJSONString(b []byte, s string) []byte {
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
		r, size := utf8.DecodeRuneInString(s[i:])
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

// ProfileJSON renders just the per-phase observability breakdown of a
// report as indented JSON — the payload behind the -profile CLI flag.
func ProfileJSON(r *core.Report) ([]byte, error) {
	type profileDoc struct {
		Package    string       `json:"package"`
		App        string       `json:"app"`
		DurationMS int64        `json:"duration_ms"`
		Profile    *obs.Profile `json:"profile"`
	}
	return json.MarshalIndent(profileDoc{
		Package:    r.Package,
		App:        r.AppName,
		DurationMS: r.Duration.Milliseconds(),
		Profile:    r.Profile,
	}, "", "  ")
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
