// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus component
// microbenchmarks and the ablations DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
package extractocol

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"extractocol/internal/callgraph"
	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/evaluate"
	"extractocol/internal/fuzz"
	"extractocol/internal/httpsim"
	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obfuscate"
	"extractocol/internal/obs"
	"extractocol/internal/pairing"
	"extractocol/internal/resultcache"
	"extractocol/internal/semmodel"
	"extractocol/internal/siglang"
	"extractocol/internal/sigvm"
	"extractocol/internal/slice"
	"extractocol/internal/taint"
	"extractocol/internal/trace"
)

// The corpus evaluation fixture is shared across benchmarks that only
// post-process its results.
var (
	fixtureOnce sync.Once
	fixture     []*evaluate.AppResult
	fixtureErr  error
)

// runCorpus evaluates the whole corpus and reports the first app error.
func runCorpus() ([]*evaluate.AppResult, error) {
	results, stats := evaluate.RunAllConfig(evaluate.RunConfig{})
	if len(stats.Errors) > 0 {
		return nil, fmt.Errorf("%s: %s", stats.Errors[0].App, stats.Errors[0].Err)
	}
	return results, nil
}

func corpusResults(b *testing.B) []*evaluate.AppResult {
	b.Helper()
	fixtureOnce.Do(func() { fixture, fixtureErr = runCorpus() })
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixture
}

// ---- Table 1: full coverage comparison over the corpus -------------------

func BenchmarkTable1_FullCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := runCorpus()
		if err != nil {
			b.Fatal(err)
		}
		rows := evaluate.Table1(results)
		if len(rows) != 34 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// ---- Figures 6 and 7: signature and keyword totals ------------------------

func BenchmarkFigure6_SignatureTotals(b *testing.B) {
	results := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		open := evaluate.Figure6(results, true)
		closed := evaluate.Figure6(results, false)
		if closed.URIs.E <= closed.URIs.M {
			b.Fatal("coverage ordering violated")
		}
		_ = open
	}
}

func BenchmarkFigure7_KeywordTotals(b *testing.B) {
	results := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		open := evaluate.Figure7(results, true)
		closed := evaluate.Figure7(results, false)
		if closed.Request.E <= closed.Request.A {
			b.Fatal("keyword ordering violated")
		}
		_ = open
	}
}

// ---- Table 2: matched-byte accounting --------------------------------------

func BenchmarkTable2_ByteAccounting(b *testing.B) {
	results := corpusResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		open := evaluate.Table2(results, true)
		closed := evaluate.Table2(results, false)
		if open.Request.Total() == 0 || closed.Request.Total() == 0 {
			b.Fatal("no bytes accounted")
		}
	}
}

// ---- Tables 3-6: case studies ----------------------------------------------

func BenchmarkTable3_RadioReddit(b *testing.B) {
	app := corpus.RadioReddit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.Analyze(app.Prog, core.NewOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Transactions) != 6 {
			b.Fatalf("transactions = %d", len(rep.Transactions))
		}
	}
}

func BenchmarkTable4_TED(b *testing.B) {
	app := corpus.TED()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.Analyze(app.Prog, core.NewOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Deps) == 0 {
			b.Fatal("no dependencies")
		}
	}
}

func BenchmarkTable5_KayakScoped(b *testing.B) {
	app := corpus.Kayak()
	opts := core.NewOptions()
	opts.ScopePrefix = "com.kayak."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.Analyze(app.Prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Transactions) != 46 {
			b.Fatalf("endpoints = %d", len(rep.Transactions))
		}
	}
}

func BenchmarkTable6_KayakReplay(b *testing.B) {
	app := corpus.Kayak()
	opts := core.NewOptions()
	opts.ScopePrefix = "com.kayak."
	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	var ua string
	for _, tx := range rep.Transactions {
		for _, h := range tx.Request.Headers {
			if h.Key == "User-Agent" {
				if l, ok := h.Val.(*siglang.Lit); ok {
					ua = l.Val
				}
			}
		}
	}
	if ua == "" {
		b.Fatal("User-Agent not recovered")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := app.NewNetwork()
		hdr := map[string]string{"User-Agent": ua}
		resp := net.RoundTrip(&httpsim.Request{Method: "POST",
			URL:     "https://www.kayak.example/k/authajax",
			Headers: hdr, Body: "action=registerandroid&uuid=x"})
		if resp.Status != 200 {
			b.Fatalf("authajax = %d", resp.Status)
		}
	}
}

// ---- §5.1 timing: open- vs closed-source analysis cost ---------------------

func BenchmarkAnalyzeOpenSource(b *testing.B) {
	apps := corpus.OpenSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := apps[i%len(apps)]
		if _, err := core.Analyze(app.Prog, core.NewOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeClosedSource(b *testing.B) {
	var apps []*corpus.App
	for _, app := range corpus.Apps() {
		if !app.Spec.OpenSource {
			apps = append(apps, app)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := apps[i%len(apps)]
		if _, err := core.Analyze(app.Prog, core.NewOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- §5.1 obfuscation: analysis of renamed binaries -------------------------

func BenchmarkObfuscatedAnalysis(b *testing.B) {
	app := corpus.Diode()
	obfuscate.Apply(app.Prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(app.Prog, core.NewOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation: the §3.4 asynchronous-event heuristic ------------------------

func BenchmarkAsyncHeuristicOff(b *testing.B) {
	benchAsyncHops(b, 0)
}

func BenchmarkAsyncHeuristicOn(b *testing.B) {
	benchAsyncHops(b, 1)
}

func benchAsyncHops(b *testing.B, hops int) {
	app, err := corpus.ByName("Weather Notification")
	if err != nil {
		b.Fatal(err)
	}
	opts := core.NewOptions()
	opts.MaxAsyncHops = hops
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(app.Prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Component microbenchmarks -----------------------------------------------

func BenchmarkDexEncodeDecode(b *testing.B) {
	app := corpus.Kayak()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := dex.Encode(app.Prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dex.Decode(data); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

func BenchmarkManualFuzzing(b *testing.B) {
	app := corpus.RadioReddit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := app.NewNetwork()
		if _, err := fuzz.Run(app.Prog, net, fuzz.Manual); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignatureMatching(b *testing.B) {
	app := corpus.RadioReddit()
	rep, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		b.Fatal(err)
	}
	net := app.NewNetwork()
	if _, err := fuzz.Run(app.Prog, net, fuzz.Manual); err != nil {
		b.Fatal(err)
	}
	entries := trace.FromNetwork(net.Trace())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := trace.MatchReport(rep, entries)
		if res.SigsValid != res.SigsWithTraffic {
			b.Fatal("invalid signatures")
		}
	}
}

func BenchmarkRegexCompile(b *testing.B) {
	app := corpus.Diode()
	rep, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tx := range rep.Transactions {
			if _, err := siglang.Compile(tx.Request.URI); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		apps := corpus.Apps()
		if len(apps) != 34 {
			b.Fatalf("apps = %d", len(apps))
		}
	}
}

// ---- Seeded generative corpus -------------------------------------------------

// The generated-corpus fixture is built once: a fixed 100-app seed, the
// same corpus the ci.sh differential stage exercises.
var (
	genFixtureOnce sync.Once
	genFixture     []*corpus.App
)

func genApps(tb testing.TB) []*corpus.App {
	tb.Helper()
	genFixtureOnce.Do(func() { genFixture = corpus.Rand(1729, 100) })
	return genFixture
}

// benchOp times op, one call per iteration, and reports its allocations.
// The operations below are shared with TestAllocCeilings, so a benchmark
// and its ceiling row always measure the same code path.
func benchOp(b *testing.B, op func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// genCorpusRandOp is pure generation: specs drawn from the seed stream
// plus program construction, 100 apps per op.
func genCorpusRandOp() error {
	if apps := corpus.Rand(1729, 100); len(apps) != 100 {
		return fmt.Errorf("apps = %d", len(apps))
	}
	return nil
}

// genCorpusAnalyzeOp is end-to-end analysis over the fixed 100-app
// generated corpus (serial, default options) — the workload the
// differential harness replays per axis.
func genCorpusAnalyzeOp(tb testing.TB) func() error {
	apps := genApps(tb)
	return func() error {
		for _, app := range apps {
			if _, err := core.Analyze(app.Prog, core.NewOptions()); err != nil {
				return err
			}
		}
		return nil
	}
}

func BenchmarkGenCorpusRand(b *testing.B) { benchOp(b, genCorpusRandOp) }

func BenchmarkGenCorpusAnalyze(b *testing.B) { benchOp(b, genCorpusAnalyzeOp(b)) }

// ---- §3.1 slicing: extraction jobs and shared analysis caches ----------------

// firstDP locates the first demarcation-point invoke of an app in program
// order, mirroring slice.Find's job enumeration.
func firstDP(tb testing.TB, p *ir.Program, model *semmodel.Model) (taint.StmtID, int) {
	tb.Helper()
	for _, c := range p.AppClasses() {
		for _, m := range c.Methods {
			for i := range m.Instrs {
				in := &m.Instrs[i]
				if in.Op != ir.OpInvoke {
					continue
				}
				mm := model.Lookup(in.Sym)
				if mm == nil || !mm.DP || mm.ReqArg < 0 || mm.ReqArg >= len(in.Args) {
					continue
				}
				return taint.StmtID{Method: m.Ref(), Index: i}, in.Args[mm.ReqArg]
			}
		}
	}
	tb.Fatal("no demarcation point found")
	return taint.StmtID{}, 0
}

// runningExample returns the paper's running example, the default model
// and the example's call graph: the inputs of the slicing and pairing
// operations.
func runningExample() (*ir.Program, *semmodel.Model, *callgraph.Graph) {
	p := corpus.RadioReddit().Prog
	model := semmodel.Default()
	return p, model, callgraph.Build(p, model)
}

// sliceFindOp is full transaction extraction — job enumeration, the
// shared caches, and backward/forward slicing — on the paper's running
// example.
func sliceFindOp() func() error {
	p, model, cg := runningExample()
	return func() error {
		if txs := slice.Find(p, model, cg, slice.Options{MaxAsyncHops: 1}); len(txs) == 0 {
			return errors.New("no transactions")
		}
		return nil
	}
}

// taintBackwardOp is one request slice with a fresh engine per call (each
// engine builds its private summary cache from scratch).
func taintBackwardOp(tb testing.TB) func() error {
	p, model, cg := runningExample()
	dp, reg := firstDP(tb, p, model)
	return func() error {
		eng := taint.NewEngine(p, model, cg)
		if res := eng.Backward(dp, reg); res.Size() == 0 {
			return errors.New("empty slice")
		}
		return nil
	}
}

func BenchmarkSliceFind(b *testing.B) { benchOp(b, sliceFindOp()) }

func BenchmarkTaintBackward(b *testing.B) { benchOp(b, taintBackwardOp(b)) }

// augmentSeed returns the running example, the default model and the
// request slice of the example's first demarcation point: the seed every
// augmentation starts from.
func augmentSeed(tb testing.TB) (*ir.Program, *semmodel.Model, *taint.Result) {
	p, model, cg := runningExample()
	dp, reg := firstDP(tb, p, model)
	seed := taint.NewEngine(p, model, cg).Backward(dp, reg)
	if seed.Size() == 0 {
		tb.Fatal("empty seed slice")
	}
	return p, model, seed
}

// BenchmarkAugment measures the incremental-worklist slice augmentation.
// Augment mutates its Result, so each iteration gets a fresh copy of the
// seed slice. The copies are made with the timer stopped, a batch at a
// time: every StopTimer/StartTimer pair reads the runtime's memory stats,
// which stops the world and costs far more than one Augment.
func BenchmarkAugment(b *testing.B) {
	p, model, seed := augmentSeed(b)
	const batch = 1024
	clones := make([]*taint.Result, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		b.StopTimer()
		clones = clones[:0]
		for k := 0; k < batch && i+k < b.N; k++ {
			clones = append(clones, seed.Clone())
		}
		b.StartTimer()
		for _, res := range clones {
			slice.Augment(p, model, res)
			if res.Size() < seed.Size() {
				b.Fatal("augment shrank the slice")
			}
		}
	}
}

// ---- Interned-symbol layer ----------------------------------------------------

// internIndexOp builds the per-program dense index (the method symbol
// table plus statement/register ID bases) that every analysis phase
// shares. The index is built once per decoded program, so this is the
// interning layer's entire fixed overhead.
func internIndexOp() func() error {
	app := corpus.RadioReddit()
	return func() error {
		if ir.NewIndex(app.Prog).NumMethods() == 0 {
			return errors.New("empty index")
		}
		return nil
	}
}

// internBitsUnionOp runs the dense-set operations the slicing and taint
// hot loops lean on — clone, union, and membership iteration over
// statement-universe-sized bitsets — the replacements for the old
// map[string]bool set algebra.
func internBitsUnionOp() func() error {
	n := ir.NewIndex(corpus.RadioReddit().Prog).NumStmts()
	x, y := intern.NewBits(n), intern.NewBits(n)
	for id := 0; id < n; id += 3 {
		x.Add(uint32(id))
	}
	for id := 0; id < n; id += 7 {
		y.Add(uint32(id))
	}
	return func() error {
		u := x.Clone()
		u.Union(y)
		count := 0
		u.Each(func(uint32) bool { count++; return true })
		if count == 0 {
			return errors.New("empty union")
		}
		return nil
	}
}

func BenchmarkInternIndex(b *testing.B) { benchOp(b, internIndexOp()) }

func BenchmarkInternBitsUnion(b *testing.B) { benchOp(b, internBitsUnionOp()) }

// ---- §3.3 pairing: indexed group analysis -------------------------------------

// pairingAnalyzeOp is the pairing group analysis over real slicer output
// (the running example's transaction set): the hot path the
// inverted-index rewrite de-quadratized.
func pairingAnalyzeOp(tb testing.TB) func() error {
	p, model, cg := runningExample()
	txs := slice.Find(p, model, cg, slice.Options{MaxAsyncHops: 1})
	if len(txs) == 0 {
		tb.Fatal("no transactions")
	}
	return func() error {
		if pairs := pairing.Analyze(txs); len(pairs) != len(txs) {
			return fmt.Errorf("pairs = %d, txs = %d", len(pairs), len(txs))
		}
		return nil
	}
}

func BenchmarkPairingAnalyze(b *testing.B) { benchOp(b, pairingAnalyzeOp(b)) }

// ---- Persistent result cache: warm-path analysis ------------------------------

// cacheWarmRunOp is a fully warm core.Analyze: the report is served from
// a primed persistent cache, so each call is one key lookup, one entry
// read, and one decode — the steady-state cost of re-analyzing an
// unchanged binary.
func cacheWarmRunOp(tb testing.TB) func() error {
	app := corpus.RadioReddit()
	cache, err := resultcache.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.NewOptions()
	key, err := resultcache.KeyForProgram(app.Prog, opts)
	if err != nil {
		tb.Fatal(err)
	}
	opts.Cache = cache
	opts.CacheKey = key
	if _, err := core.Analyze(app.Prog, opts); err != nil { // prime
		tb.Fatal(err)
	}
	return func() error {
		rep, err := core.Analyze(app.Prog, opts)
		if err != nil {
			return err
		}
		if rep.Profile.Counters[obs.CtrCacheReportHits] != 1 {
			return errors.New("warm run missed the cache")
		}
		return nil
	}
}

func BenchmarkCacheWarmRun(b *testing.B) { benchOp(b, cacheWarmRunOp(b)) }

// ---- Ablation: the §4 intent-modeling extension -------------------------------

func BenchmarkIntentModelingOff(b *testing.B) {
	benchIntents(b, false)
}

func BenchmarkIntentModelingOn(b *testing.B) {
	benchIntents(b, true)
}

func benchIntents(b *testing.B, model bool) {
	app, err := corpus.ByName("MusicDownloader")
	if err != nil {
		b.Fatal(err)
	}
	opts := core.NewOptions()
	opts.ModelIntents = model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.Analyze(app.Prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		// With intents modeled, the seven intent-triggered GETs appear.
		if model && rep.CountByMethod()["GET"] <= 3 {
			b.Fatal("intent modeling gained no transactions")
		}
	}
}

// ---- Observability: tracing must be free when disabled -------------------------

// BenchmarkTracerDisabled measures the span-instrumented hot path — start a
// span, bump a counter, end the span — on an untraced shard, exactly what
// every taint fixpoint and worker job executes when no -trace flag is given.
// The contract (a row of TestAllocCeilings) is 0 allocs/op: with
// no tracer bound, Span is a nil check returning a value-type ActiveSpan and
// End is a nil check, so instrumentation costs nothing when off.
func BenchmarkTracerDisabled(b *testing.B) {
	s := obs.NewCollector().NewShard()
	// Pre-insert the counter key: incrementing an existing map key does not
	// allocate, and the steady state is what the hot loops see.
	s.Add(obs.CtrTaintFacts, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := s.Span(obs.CatTaintBackward, "bench")
		s.Add(obs.CtrTaintFacts, 1)
		sp.End()
	}
}

// ---- Signature-matcher VM throughput -------------------------------------------

// The classifier fixture is shared across the throughput benchmarks and
// the classify rows of TestAllocCeilings: the RadioReddit report, a large
// seeded labeled trace, and the signatures compiled once to sigvm
// bytecode.
var (
	classifyOnce    sync.Once
	classifyRep     *core.Report
	classifyEntries []trace.Entry
	classifyBundle  *sigvm.Bundle
	classifyErr     error
)

func classifyInput(tb testing.TB) (*core.Report, []trace.Entry, *sigvm.Bundle) {
	classifyOnce.Do(func() {
		app := corpus.RadioReddit()
		rep, err := core.Analyze(app.Prog, core.NewOptions())
		if err != nil {
			classifyErr = err
			return
		}
		classifyRep = rep
		classifyEntries = trace.Entries(trace.RandEntries(99, rep, 4000))
		classifyBundle = sigvm.Compile(rep)
	})
	if classifyErr != nil {
		tb.Fatal(classifyErr)
	}
	return classifyRep, classifyEntries, classifyBundle
}

// classifyOp classifies the fixture's trace with its precompiled bundle.
func classifyOp(tb testing.TB, opt trace.ClassifyOptions) func() error {
	rep, entries, bundle := classifyInput(tb)
	opt.Bundle = bundle
	return func() error {
		if trace.Classify(rep, entries, opt).TraceEntries == 0 {
			return errors.New("classifier considered no entries")
		}
		return nil
	}
}

func benchClassify(b *testing.B, opt trace.ClassifyOptions) {
	benchOp(b, classifyOp(b, opt))
	_, entries, _ := classifyInput(b)
	b.ReportMetric(float64(len(entries))*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
}

// BenchmarkClassifyThroughput measures classifier throughput over one
// labeled trace with a precompiled bundle: serially, and under worker
// fan-out. TestCompiledClassifySpeedupFloor (internal/sigvm) times the
// interpretive oracle over the same trace.
func BenchmarkClassifyThroughput(b *testing.B) {
	b.Run("vm", func(b *testing.B) {
		benchClassify(b, trace.ClassifyOptions{})
	})
	b.Run("vm_parallel", func(b *testing.B) {
		benchClassify(b, trace.ClassifyOptions{Workers: -1})
	})
}
