package sigvm_test

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/fuzz"
	"extractocol/internal/sigbuild"
	"extractocol/internal/siglang"
	"extractocol/internal/sigvm"
	"extractocol/internal/trace"
)

// Report-level equivalence of the compiled matcher and the interpretive
// oracle: trace.Classify, which matches through one sigvm.Bundle, against
// a classification built from the oracle primitives of oracle_test.go.

// oracleClassify classifies entries against rep's signatures with the
// interpretive oracle, serially: the rendered URI regexp as the pre-filter
// (signatures whose regexp does not compile never match), the most
// specific match (longest rendered regexp, first in report order on a tie)
// among signatures of the entry's method, and the oracle's byte
// accounting of the URI and both bodies. It builds the ClassifyResult
// trace.Classify documents.
func oracleClassify(rep *core.Report, entries []trace.Entry) *trace.ClassifyResult {
	type sig struct {
		tx *core.Transaction
		re *regexp.Regexp
	}
	var sigs []sig
	for _, tx := range rep.Transactions {
		if re, err := siglang.Compile(tx.Request.URI); err == nil {
			sigs = append(sigs, sig{tx, re})
		}
	}
	res := &trace.ClassifyResult{Verdicts: make([]int, len(entries))}
	matched := map[int]bool{}
	failed := map[int]bool{}
	hits := map[int]int{}
	for ei, e := range entries {
		if e.Status >= 400 {
			continue
		}
		res.TraceEntries++
		var best *sig
		for i := range sigs {
			s := &sigs[i]
			if s.tx.Request.Method != e.Method || !s.re.MatchString(e.URL) {
				continue
			}
			if best == nil || len(s.re.String()) > len(best.re.String()) {
				best = s
			}
		}
		if best == nil {
			res.Unmatched = append(res.Unmatched, e.RouteID)
			continue
		}
		id := best.tx.ID
		res.MatchedEntries++
		matched[id] = true
		hits[id]++
		res.Verdicts[ei] = id
		if _, st := sigvm.MatchText(best.tx.Request.URI, e.URL); st.Total() > 0 {
			res.URIStats.Add(st)
		}
		reqOK, st := oracleRequestBody(best.tx, e.ReqBody)
		res.ReqStats.Add(st)
		respOK, st := oracleResponseBody(best.tx, e.RespType, e.RespBody)
		res.RespStats.Add(st)
		if !reqOK || !respOK {
			failed[id] = true
		}
	}
	res.SigsWithTraffic = len(matched)
	for id := range matched {
		if !failed[id] {
			res.SigsValid++
		}
	}
	for _, tx := range rep.Transactions {
		res.PerSig = append(res.PerSig, trace.SigHits{TxID: tx.ID, Method: tx.Request.Method, Hits: hits[tx.ID]})
	}
	return res
}

// oracleRequestBody dispatches on the signature's body kind; text bodies
// shaped like query strings get query accounting, and a body the
// signature does not model is valid with every byte unaccounted.
func oracleRequestBody(tx *core.Transaction, body string) (bool, siglang.ByteStats) {
	if body == "" {
		return true, siglang.ByteStats{}
	}
	switch tx.Request.BodyKind {
	case "query":
		return sigvm.MatchQuery(tx.Request.Body, body)
	case "json":
		ok, st, err := sigvm.MatchJSON(tx.Request.Body, []byte(body))
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	case "text":
		if siglang.QueryShapedBody(body) {
			return sigvm.MatchQuery(tx.Request.Body, body)
		}
		return sigvm.MatchText(tx.Request.Body, body)
	default:
		return true, siglang.ByteStats{None: len(body)}
	}
}

// oracleResponseBody matches JSON and XML bodies against the signature of
// the same type; any other body is valid with every byte unaccounted.
func oracleResponseBody(tx *core.Transaction, respType, body string) (bool, siglang.ByteStats) {
	if tx.Response == nil || body == "" {
		return true, siglang.ByteStats{}
	}
	switch {
	case tx.Response.BodyKind == "json" && respType == "json":
		ok, st, err := sigvm.MatchJSON(&siglang.JSON{Root: tx.Response.JSON}, []byte(body))
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	case tx.Response.BodyKind == "xml" && respType == "xml":
		ok, st, err := sigvm.MatchXML(&siglang.XML{Root: tx.Response.XML}, []byte(body))
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	default:
		return true, siglang.ByteStats{None: len(body)}
	}
}

// analyze runs the analysis the evaluation runs: open-source apps without
// asynchronous-event hops.
func analyze(t testing.TB, app *corpus.App) *core.Report {
	t.Helper()
	opts := core.NewOptions()
	if app.Spec.OpenSource {
		opts.MaxAsyncHops = 0
	}
	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", app.Spec.Name, err)
	}
	return rep
}

// recorded returns the traffic of one manual fuzzing session.
func recorded(t testing.TB, app *corpus.App) []trace.Entry {
	t.Helper()
	n := app.NewNetwork()
	if _, err := fuzz.Run(app.Prog, n, fuzz.Manual); err != nil {
		t.Fatalf("%s: %v", app.Spec.Name, err)
	}
	return trace.FromNetwork(n.Trace())
}

// distinct drops entries that repeat an earlier one in every field the
// matcher reads. Long-poll apps re-send one request until the
// interpreter's step cap, so their recorded traffic is mostly repeats.
func distinct(entries []trace.Entry) []trace.Entry {
	type key struct {
		method, url, reqBody string
		status               int
		respType, respBody   string
		routeID              string
	}
	seen := map[key]bool{}
	var out []trace.Entry
	for _, e := range entries {
		k := key{e.Method, e.URL, e.ReqBody, e.Status, e.RespType, e.RespBody, e.RouteID}
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// checkClassify compares trace.Classify under worker fan-out with the
// oracle's serial classification, byte for byte, and checks that the
// labeled entries, appended after the first base entries, get their
// labels.
func checkClassify(t *testing.T, name string, rep *core.Report, base []trace.Entry, labeled []trace.LabeledEntry) {
	t.Helper()
	entries := append(base, trace.Entries(labeled)...)
	// The compiled side runs first, on the report as analyzed: the oracle
	// merges array element signatures in place.
	got := trace.Classify(rep, entries, trace.ClassifyOptions{Workers: -1})
	want := oracleClassify(rep, entries)
	jg, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	jw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(jg) != string(jw) {
		t.Errorf("%s: classifications differ over %d entries:\ncompiled %s\noracle   %s", name, len(entries), jg, jw)
		return
	}
	for j, le := range labeled {
		if v := got.Verdicts[len(base)+j]; v != le.WantID {
			t.Errorf("%s: labeled entry %d (%s %s): verdict %d, label %d", name, j, le.Method, le.URL, v, le.WantID)
			return
		}
	}
}

// TestClassifyMatchesOracle holds the compiled matcher to the oracle over
// the Table 1 corpus and generated apps: every Table 1 app's recorded
// manual traffic plus 50 labeled entries, 50 labeled entries for each of
// corpus.Rand(1729, 100), and the distinct recorded traffic of
// corpus.Rand(31, 4); plus one hand-built best-match tie.
func TestClassifyMatchesOracle(t *testing.T) {
	t.Run("table1", func(t *testing.T) {
		for i, app := range corpus.Apps() {
			rep := analyze(t, app)
			checkClassify(t, app.Spec.Name, rep, recorded(t, app), trace.RandEntries(uint64(1729+i), rep, 50))
		}
	})
	t.Run("rand-1729-100", func(t *testing.T) {
		for i, app := range corpus.Rand(1729, 100) {
			rep := analyze(t, app)
			checkClassify(t, app.Spec.Name, rep, nil, trace.RandEntries(uint64(1729+i), rep, 50))
		}
	})
	t.Run("rand-31-4", func(t *testing.T) {
		for _, app := range corpus.Rand(31, 4) {
			checkClassify(t, app.Spec.Name, analyze(t, app), distinct(recorded(t, app)), nil)
		}
	})
	// No app above has two matching signatures whose rendered URI regexps
	// are equally long; on such a tie the first in report order wins.
	t.Run("tie", func(t *testing.T) {
		tx := func(id int, uri string) *core.Transaction {
			s, err := siglang.Parse(uri)
			if err != nil {
				t.Fatal(err)
			}
			return &core.Transaction{ID: id, Request: &sigbuild.RequestSig{Method: "GET", URI: s}}
		}
		rep := &core.Report{Transactions: []*core.Transaction{
			tx(1, `concat("https://h/", ?string, "z")`),
			tx(2, `concat("https://h/z", ?string)`),
		}}
		checkClassify(t, "tie", rep, []trace.Entry{{Method: "GET", URL: "https://h/zz", Status: 200, RouteID: "GET /zz"}}, nil)
	})
}

// TestMatchJSONAllocs bounds the allocations of matching one JSON body
// whose signature has no literal leaves: radio reddit's login response
// against obj{"modhash": ?string, "cookie": ?string, "need_https": ?bool}.
// The one allowed is the body's conversion to bytes for json.Valid; the
// walk itself allocates nothing.
func TestMatchJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, and json.Valid pools its scanner")
	}
	app := corpus.RadioReddit()
	rep := analyze(t, app)
	entries := recorded(t, app)
	bundle := sigvm.Compile(rep)
	cls := trace.Classify(rep, entries, trace.ClassifyOptions{Bundle: bundle})
	for ei, e := range entries {
		if !strings.HasSuffix(e.URL, "/api/login") || e.RespType != "json" {
			continue
		}
		sig := -1
		for i := 0; i < bundle.NumSigs(); i++ {
			if bundle.TxID(i) == cls.Verdicts[ei] {
				sig = i
			}
		}
		if sig < 0 {
			t.Fatalf("login entry %s matched no signature", e.URL)
		}
		m := bundle.NewMatcher()
		if ok, st := m.MatchResponseBody(sig, e.RespType, e.RespBody); !ok || st.Key == 0 {
			t.Fatalf("login response %q: ok=%v stats=%+v, want a keyed match", e.RespBody, ok, st)
		}
		allocs := testing.AllocsPerRun(100, func() { m.MatchResponseBody(sig, e.RespType, e.RespBody) })
		if allocs > 1 {
			t.Errorf("matching the %d-byte login response costs %.0f allocations, want at most 1", len(e.RespBody), allocs)
		}
		return
	}
	t.Fatal("radio reddit's recorded traffic has no JSON login response")
}

// classifyFloor is the minimum ratio of the oracle's classification time
// to the compiled matcher's: the speedup the bytecode compiler exists to
// deliver.
const classifyFloor = 5

// TestCompiledClassifySpeedupFloor times both classifications of the
// root BenchmarkClassifyThroughput's input: 4000 labeled entries for radio
// reddit analyzed with the default options. The compiled side reuses a
// bundle; the oracle re-derives its regexps on every run. The floor holds on the
// current measurement alone, with no baseline file to regenerate.
func TestCompiledClassifySpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark floor")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews timing")
	}
	rep, err := core.Analyze(corpus.RadioReddit().Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	entries := trace.Entries(trace.RandEntries(99, rep, 4000))
	bundle := sigvm.Compile(rep)
	run := func(classify func() *trace.ClassifyResult) int64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if classify().TraceEntries == 0 {
					b.Fatal("classifier considered no entries")
				}
			}
		})
		if res.N == 0 {
			t.Fatal("benchmark failed to run")
		}
		return res.NsPerOp()
	}
	vm := run(func() *trace.ClassifyResult {
		return trace.Classify(rep, entries, trace.ClassifyOptions{Bundle: bundle})
	})
	oracle := run(func() *trace.ClassifyResult { return oracleClassify(rep, entries) })
	if vm*classifyFloor > oracle {
		t.Errorf("compiled matcher classifies at %d ns/op vs oracle %d ns/op (%.1fx): floor is %dx",
			vm, oracle, float64(oracle)/float64(vm), classifyFloor)
	}
	t.Logf("compiled %d ns/op, oracle %d ns/op (%.1fx)", vm, oracle, float64(oracle)/float64(vm))
}
