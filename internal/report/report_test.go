package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/obs"
	"extractocol/internal/sigbuild"
	"extractocol/internal/siglang"
	"extractocol/internal/txdep"
)

func rrReport(t *testing.T) *core.Report {
	t.Helper()
	app := corpus.RadioReddit()
	rep, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTextContainsTransactionsAndDeps(t *testing.T) {
	text := Text(rrReport(t))
	for _, want := range []string{
		"radio reddit",
		"ssl\\.reddit\\.com/api/login",
		"api/vote",
		"response field modhash",
		"header Cookie",
		"response goes to: media",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q", want)
		}
	}
}

func TestJSONIsValidAndComplete(t *testing.T) {
	rep := rrReport(t)
	data, err := JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	txs, ok := v["transactions"].([]any)
	if !ok || len(txs) != len(rep.Transactions) {
		t.Fatalf("transactions = %v", v["transactions"])
	}
	if _, hasDeps := v["dependencies"]; !hasDeps {
		t.Fatal("dependencies missing")
	}
}

func TestDOTWellFormed(t *testing.T) {
	dot := DOT(rrReport(t))
	if !strings.HasPrefix(dot, "digraph transactions {") || !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Fatalf("malformed DOT:\n%s", dot)
	}
	if !strings.Contains(dot, "->") {
		t.Fatal("DOT has no edges")
	}
	if !strings.Contains(dot, "media") {
		t.Fatal("DOT missing media sink edge")
	}
}

func TestGroupByPrefixKayak(t *testing.T) {
	app := corpus.Kayak()
	opts := core.NewOptions()
	opts.ScopePrefix = "com.kayak."
	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupByPrefix(rep)
	byPrefix := map[string]int{}
	for _, g := range groups {
		byPrefix[g.Method+" "+g.Prefix] += g.Count
	}
	if byPrefix["GET /trips/v2"] != 11 {
		t.Errorf("trips/v2 = %d, want 11", byPrefix["GET /trips/v2"])
	}
	if byPrefix["POST /k/authajax"] != 2 {
		t.Errorf("authajax = %d, want 2", byPrefix["POST /k/authajax"])
	}
	if byPrefix["GET /h/mobileapis"] != 12 {
		t.Errorf("mobileapis = %d, want 12", byPrefix["GET /h/mobileapis"])
	}
}

// TestRenderingLeavesSignaturesUnchanged checks that rendering a report
// does not rewrite its signature trees. An array whose elements are
// differently shaped objects is what AppendJSONSchema folds into one item
// schema; the fold must not merge the later elements into the first.
func TestRenderingLeavesSignaturesUnchanged(t *testing.T) {
	arr := func() siglang.Sig {
		s, err := siglang.Parse(`array[obj{"a": ?int}, obj{"b": ?string}]`)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	resp := &siglang.Obj{}
	resp.Put("items", arr())
	tx := &core.Transaction{
		ID: 1,
		Request: &sigbuild.RequestSig{
			Method:   "POST",
			URI:      siglang.Str("https://a.example.com/items"),
			BodyKind: "json",
			Body:     &siglang.JSON{Root: arr()},
		},
		Response: &sigbuild.ResponseSig{BodyKind: "json", JSON: resp},
	}
	rep := &core.Report{Package: "t.render", Transactions: []*core.Transaction{tx}}
	canon := func() string {
		return siglang.Canon(tx.Request.Body) + " / " + siglang.Canon(tx.Response.JSON)
	}
	before := canon()
	for _, r := range []struct {
		name   string
		render func() error
	}{
		{"Text", func() error { Text(rep); return nil }},
		{"JSON", func() error { _, err := JSON(rep); return err }},
	} {
		if err := r.render(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if after := canon(); after != before {
			t.Fatalf("%s rewrote the report's signatures:\nbefore %s\nafter  %s", r.name, before, after)
		}
	}
}

// jsonTx and jsonReport are the struct shape JSONOpts rendered through
// json.MarshalIndent before it wrote the document in one pass. With
// oracleJSON they are the oracle whose bytes JSONOpts must equal.
type jsonTx struct {
	ID         int               `json:"id"`
	Method     string            `json:"method"`
	URIRegex   string            `json:"uri_regex"`
	Headers    map[string]string `json:"headers,omitempty"`
	BodyKind   string            `json:"body_kind,omitempty"`
	BodyRegex  string            `json:"body_regex,omitempty"`
	BodySchema string            `json:"body_schema,omitempty"`
	RespKind   string            `json:"resp_kind,omitempty"`
	RespKeys   []string          `json:"resp_keys,omitempty"`
	RespSchema string            `json:"resp_schema,omitempty"`
	RespDTD    string            `json:"resp_dtd,omitempty"`
	Paired     bool              `json:"paired"`
	Sinks      []string          `json:"sinks,omitempty"`
	Sources    []string          `json:"sources,omitempty"`
	DP         string            `json:"demarcation_point"`
	Security   *SecurityInfo     `json:"security,omitempty"`
}

type jsonReport struct {
	Package       string              `json:"package"`
	App           string              `json:"app"`
	Transactions  []jsonTx            `json:"transactions"`
	Deps          []jsonDep           `json:"dependencies,omitempty"`
	Pairs         int                 `json:"pairs"`
	SliceFraction float64             `json:"slice_fraction"`
	DurationMS    int64               `json:"duration_ms"`
	Profile       *obs.Profile        `json:"profile,omitempty"`
	Diagnostics   []budget.Diagnostic `json:"diagnostics,omitempty"`
}

func oracleJSON(r *core.Report, o Options) ([]byte, error) {
	out := jsonReport{
		Package:       r.Package,
		App:           r.AppName,
		Pairs:         r.PairCount(),
		SliceFraction: r.SliceFraction,
		DurationMS:    r.Duration.Milliseconds(),
		Profile:       r.Profile,
		Diagnostics:   r.Diagnostics,
	}
	for _, tx := range r.Transactions {
		jt := jsonTx{
			ID:       tx.ID,
			Method:   tx.Request.Method,
			URIRegex: tx.URIRegex(),
			BodyKind: tx.Request.BodyKind,
			Paired:   tx.Paired,
			Sinks:    tx.Sinks,
			Sources:  tx.Sources,
			DP:       tx.DP,
		}
		if o.Security {
			jt.Security = SecurityFor(tx)
		}
		if len(tx.Request.Headers) > 0 {
			jt.Headers = map[string]string{}
			for _, h := range tx.Request.Headers {
				jt.Headers[h.Key] = siglang.RegexBody(h.Val)
			}
		}
		switch tx.Request.BodyKind {
		case "json":
			jt.BodySchema = string(siglang.AppendJSONSchema(nil, tx.Request.Body))
		case "":
		default:
			jt.BodyRegex = siglang.Regex(tx.Request.Body)
		}
		if tx.Response != nil && tx.Response.HasBody() {
			jt.RespKind = tx.Response.BodyKind
			switch tx.Response.BodyKind {
			case "json":
				jt.RespKeys = siglang.Keywords(&siglang.JSON{Root: tx.Response.JSON})
				jt.RespSchema = string(siglang.AppendJSONSchema(nil, &siglang.JSON{Root: tx.Response.JSON}))
			case "xml":
				jt.RespKeys = siglang.Keywords(&siglang.XML{Root: tx.Response.XML})
				jt.RespDTD = string(siglang.AppendDTD(nil, &siglang.XML{Root: tx.Response.XML}))
			}
		}
		out.Transactions = append(out.Transactions, jt)
	}
	for _, d := range r.Deps {
		out.Deps = append(out.Deps, jsonDep(d))
	}
	return json.MarshalIndent(out, "", "  ")
}

// checkJSONMatchesOracle requires JSONOpts to render r byte for byte as
// the oracle does, or both to fail.
func checkJSONMatchesOracle(t *testing.T, name string, r *core.Report, o Options) {
	t.Helper()
	got, err := JSONOpts(r, o)
	want, werr := oracleJSON(r, o)
	checkSameOutput(t, name, got, err, want, werr)
}

// checkSameOutput requires a renderer and its oracle to give equal bytes,
// or the same error.
func checkSameOutput(t *testing.T, name string, got []byte, err error, want []byte, werr error) {
	t.Helper()
	switch {
	case (err != nil) != (werr != nil):
		t.Fatalf("%s: error %v, oracle error %v", name, err, werr)
	case err != nil:
		if err.Error() != werr.Error() {
			t.Fatalf("%s: error %q, oracle error %q", name, err, werr)
		}
	case !bytes.Equal(got, want):
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: differs from the oracle at byte %d:\ngot  %q\nwant %q",
			name, i, got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
}

// Edge-case report shapes, as bits of edgeReport's flags.
const (
	edgeNoTx     = 1 << iota // no transactions: the list renders as null
	edgeDiag                 // a degradation diagnostic
	edgeSecurity             // render with the security lens
	edgeProfile              // a phase profile
	edgeNilChild             // the XML response root has a nil child, as ?elem parses
)

// edgeReport builds a two-transaction report whose strings come from the
// arguments: the URI literal, the header key (sent twice, and as a body,
// response and XML key) and the demarcation point end up in every string
// member the JSON document has.
func edgeReport(pkg, app, uri, header, dp string, frac float64, flags uint8) (*core.Report, Options) {
	r := &core.Report{Package: pkg, AppName: app, SliceFraction: frac, Duration: 1500 * time.Microsecond}
	if flags&edgeNoTx == 0 {
		body := &siglang.Obj{}
		body.Put(header, siglang.AnyString())
		resp := &siglang.Obj{}
		resp.Put(header, siglang.AnyInt())
		resp.Put("items", &siglang.Arr{Elems: []siglang.Sig{siglang.Str(uri)}})
		feed := &siglang.Elem{
			Tag:      "feed",
			Children: []*siglang.Elem{{Tag: "entry", Attrs: []siglang.KV{{Key: header, Val: siglang.Str(dp)}}}},
		}
		if flags&edgeNilChild != 0 {
			feed.Children = append(feed.Children, nil)
		}
		r.Transactions = []*core.Transaction{{
			ID: 1,
			DP: dp,
			Request: &sigbuild.RequestSig{
				Method: "POST",
				URI:    siglang.Cat(siglang.Str(uri), siglang.AnyString()),
				Headers: []siglang.KV{
					{Key: header, Val: siglang.Str(uri)},
					{Key: "Cookie", Val: siglang.AnyString()},
					{Key: header, Val: siglang.Str(dp)},
				},
				BodyKind: "json",
				Body:     &siglang.JSON{Root: body},
			},
			Response: &sigbuild.ResponseSig{BodyKind: "json", JSON: resp},
			Paired:   true,
			Sinks:    []string{dp, header},
			Sources:  []string{uri},
		}, {
			ID: 2,
			DP: dp,
			Request: &sigbuild.RequestSig{
				Method:   "GET",
				URI:      siglang.Str(uri),
				BodyKind: "query",
				Body:     siglang.Cat(siglang.Str(header+"="), siglang.AnyInt()),
			},
			Response: &sigbuild.ResponseSig{BodyKind: "xml", XML: feed},
		}}
		r.Deps = []txdep.Dep{
			{From: 1, To: 2, FromField: header, ToPart: "uri", Via: dp},
			{From: 1, To: 2, ToPart: "header " + header, Via: uri},
		}
	}
	if flags&edgeDiag != 0 {
		r.Diagnostics = []budget.Diagnostic{{Phase: "slice", Kind: "budget", Site: dp, Detail: uri}}
	}
	if flags&edgeProfile != 0 {
		r.Profile = &obs.Profile{
			TotalNS:  1500000,
			Phases:   []obs.PhaseProfile{{Name: "slice", DurationNS: 900000}, {Name: dp, DurationNS: 1234567}},
			Counters: map[string]int64{header: 3, "a": -1},
			Gauges:   map[string]float64{header: frac, "z": 0.5},
			Hists: map[string]*obs.HistSnapshot{
				header: {Count: 2, SumNS: 10, MaxNS: 7, P50NS: 3, P90NS: 7, P99NS: 7, Buckets: []obs.HistBucket{{Idx: 1, N: 2}}},
				"nil":  nil,
				"zero": {},
			},
		}
	}
	return r, Options{Security: flags&edgeSecurity != 0}
}

// jsonEdgeCases are the strings and fractions on which JSON encoding has
// rules of its own: HTML escaping, control bytes, invalid UTF-8, the JSONP
// line separators, and floats at the 'f'/'e' boundaries or without a JSON
// form.
var jsonEdgeCases = []struct {
	pkg, app, uri, header, dp string
	frac                      float64
	flags                     uint8
}{
	{"com.example", "Example", "https://api.example.com/v1?a=1&b=<2>", "Authorization", "execute", 0.25, 0},
	{"p\x00\x01\x1f\x7f", "tab\tnl\nbs\bff\fcr\r", `q"uote\back`, "X-Api-Key", "dp", 1, edgeSecurity},
	{"bad\xff\xfeutf8", "\xc3", "http://h.example.com/\xe2\x80", "passwd", "\xed\xa0\x80", 0.5, edgeSecurity | edgeDiag},
	{"sep\u2028line\u2029para", "\u00e9\U0001F600", "https://x.example.com/\u2028", "email", "d\u2029p", 0, edgeProfile},
	{"nan", "a", "u", "k", "d", math.NaN(), 0},
	{"inf", "a", "u", "k", "d", math.Inf(1), 0},
	{"-inf", "a", "u", "k", "d", math.Inf(-1), edgeNoTx},
	{"tiny", "a", "u", "k", "d", 1e-7, 0},
	{"huge", "a", "u", "k", "d", 1e21, 0},
	{"edges", "a", "u", "k", "d", 1e-6, edgeDiag},
	{"neg", "a", "u", "k", "d", -123456.789e-30, 0},
	{"negzero", "a", "u", "k", "d", math.Copysign(0, -1), 0},
	{"notx", "a", "u", "k", "d", 0.1, edgeNoTx},
	{"all", "<a&b>", "http://u.example.com/?x=<y>", "session_id", "d&p", 0.333, edgeNoTx | edgeDiag | edgeSecurity | edgeProfile},
	{"all-tx", "<a&b>", "http://u.example.com/?x=<y>", "session_id", "d&p", 0.333, edgeDiag | edgeSecurity | edgeProfile},
	{"nil-child", "a", "u", "k", "d", 0.5, edgeNilChild},
	{"", "", "", "", "", 0, 0},
}

// TestJSONMatchesOracle holds the one-pass JSON writer to the struct-shape
// oracle over the corpus, a generated corpus and the edge cases, with the
// security lens on and off. Corpus reports carry their phase profile, so
// the profile member is compared too.
func TestJSONMatchesOracle(t *testing.T) {
	for _, a := range append(corpus.Apps(), corpus.Rand(1729, 100)...) {
		rep, err := core.Analyze(a.Prog, core.NewOptions())
		if err != nil {
			t.Fatalf("%s: %v", a.Spec.Name, err)
		}
		for _, o := range []Options{{}, {Security: true}} {
			checkJSONMatchesOracle(t, a.Spec.Name, rep, o)
		}
	}
	for _, c := range jsonEdgeCases {
		for _, sec := range []uint8{0, edgeSecurity} {
			rep, o := edgeReport(c.pkg, c.app, c.uri, c.header, c.dp, c.frac, c.flags|sec)
			checkJSONMatchesOracle(t, c.pkg, rep, o)
		}
	}
}

// FuzzReportJSON renders hand-built reports with arbitrary strings and
// slice fractions through the one-pass writer and through the oracle.
func FuzzReportJSON(f *testing.F) {
	for _, c := range jsonEdgeCases {
		f.Add(c.pkg, c.app, c.uri, c.header, c.dp, c.frac, c.flags)
	}
	f.Fuzz(func(t *testing.T, pkg, app, uri, header, dp string, frac float64, flags uint8) {
		rep, o := edgeReport(pkg, app, uri, header, dp, frac, flags)
		checkJSONMatchesOracle(t, "fuzz", rep, o)
	})
}

// oracleText is TextOpts as it was before it appended in one pass:
// fmt.Fprintf per line into a strings.Builder. TextOpts must equal it
// byte for byte.
func oracleText(r *core.Report, o Options) string {
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
		return string(siglang.AppendJSONSchema(nil, j))
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

// checkTextMatchesOracle requires TextOpts to render r byte for byte as
// the oracle does.
func checkTextMatchesOracle(t *testing.T, name string, r *core.Report, o Options) {
	t.Helper()
	checkSameOutput(t, name, []byte(TextOpts(r, o)), nil, []byte(oracleText(r, o)), nil)
}

// TestTextMatchesOracle holds the one-pass text renderer to the
// fmt.Fprintf oracle over the corpus with its phase profiles, a generated
// corpus and the edge cases, with the security lens on and off, and over
// reports whose dependency lines repeat.
func TestTextMatchesOracle(t *testing.T) {
	for _, a := range append(corpus.Apps(), corpus.Rand(1729, 100)...) {
		rep, err := core.Analyze(a.Prog, core.NewOptions())
		if err != nil {
			t.Fatalf("%s: %v", a.Spec.Name, err)
		}
		for _, o := range []Options{{}, {Security: true}} {
			checkTextMatchesOracle(t, a.Spec.Name, rep, o)
		}
	}
	for _, c := range jsonEdgeCases {
		for _, sec := range []uint8{0, edgeSecurity} {
			rep, o := edgeReport(c.pkg, c.app, c.uri, c.header, c.dp, c.frac, c.flags|sec)
			checkTextMatchesOracle(t, c.pkg, rep, o)
		}
	}
	// Dependency lines are written once each: the same edge twice, and two
	// edges whose field and part render to the same line.
	rep, o := edgeReport("dup", "a", "u", "k", "d", 0.5, 0)
	rep.Deps = append(rep.Deps,
		txdep.Dep{From: 1, To: 2, FromField: "k", ToPart: "uri", Via: "other"},
		txdep.Dep{From: 1, To: 2, FromField: "a for b", ToPart: "c"},
		txdep.Dep{From: 1, To: 2, FromField: "a", ToPart: "b for c"},
		txdep.Dep{From: 1, To: 2, FromField: "x\n    uses tx #1's response", ToPart: "y"},
		txdep.Dep{From: 1, To: 2, ToPart: "y"},
		txdep.Dep{From: 2, To: 1, ToPart: "uri"},
		txdep.Dep{From: 2, To: 1, ToPart: "uri"},
	)
	checkTextMatchesOracle(t, "dup", rep, o)
	if text := TextOpts(rep, o); strings.Count(text, "uses tx #1's response field k for uri") != 1 {
		t.Fatalf("a repeated dependency line is written %d times:\n%s",
			strings.Count(text, "uses tx #1's response field k for uri"), text)
	}
}

// FuzzReportText renders the edge-case report shapes with arbitrary
// strings and slice fractions through the one-pass text renderer and
// through the oracle.
func FuzzReportText(f *testing.F) {
	for _, c := range jsonEdgeCases {
		f.Add(c.pkg, c.app, c.uri, c.header, c.dp, c.frac, c.flags)
	}
	f.Fuzz(func(t *testing.T, pkg, app, uri, header, dp string, frac float64, flags uint8) {
		rep, o := edgeReport(pkg, app, uri, header, dp, frac, flags)
		checkTextMatchesOracle(t, "fuzz", rep, o)
	})
}

// oracleProfileJSON is ProfileJSON as it was: json.MarshalIndent of a
// struct shape.
func oracleProfileJSON(r *core.Report) ([]byte, error) {
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

// TestProfileJSONMatchesOracle holds ProfileJSON to the struct-shape
// oracle on the corpus reports' profiles, on none, on an empty one and on
// the edge-case profiles.
func TestProfileJSONMatchesOracle(t *testing.T) {
	var reps []*core.Report
	for _, a := range corpus.Apps() {
		rep, err := core.Analyze(a.Prog, core.NewOptions())
		if err != nil {
			t.Fatalf("%s: %v", a.Spec.Name, err)
		}
		reps = append(reps, rep)
	}
	reps = append(reps,
		&core.Report{Package: "none"},
		&core.Report{Package: "empty", Profile: &obs.Profile{}},
		&core.Report{Package: "empty-phases", Profile: &obs.Profile{Phases: []obs.PhaseProfile{}}})
	for _, c := range jsonEdgeCases {
		rep, _ := edgeReport(c.pkg, c.app, c.uri, c.header, c.dp, c.frac, c.flags|edgeProfile)
		reps = append(reps, rep)
	}
	for _, rep := range reps {
		got, err := ProfileJSON(rep)
		want, werr := oracleProfileJSON(rep)
		checkSameOutput(t, rep.Package, got, err, want, werr)
	}
}

// TestWriterKnowsEveryMember pins the members of the types the JSON
// writer renders by hand, which the struct-shape oracle marshals by
// reflection: a member added to one of them must be written by the
// writer too, and then counted here.
func TestWriterKnowsEveryMember(t *testing.T) {
	for _, c := range []struct {
		v       any
		members int
	}{
		{obs.Profile{}, 5},
		{obs.PhaseProfile{}, 2},
		{obs.HistSnapshot{}, 7},
		{obs.HistBucket{}, 2},
		{budget.Diagnostic{}, 5},
		{SecurityInfo{}, 4},
	} {
		if n := reflect.TypeOf(c.v).NumField(); n != c.members {
			t.Errorf("%T has %d members; the JSON writer writes %d", c.v, n, c.members)
		}
	}
}
