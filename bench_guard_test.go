// Performance regression guard. TestBenchRegressionGuard measures one
// representative end-to-end analysis (per-phase wall time plus allocations)
// and compares it against the committed baseline in BENCH_baseline.json.
// Thresholds are deliberately generous — the guard exists to catch
// order-of-magnitude regressions (an accidentally quadratic loop, a
// per-statement allocation in a hot path), not scheduler noise.
//
// Regenerate the baseline after an intentional performance change with:
//
//	EXTRACTOCOL_BENCH_BASELINE=write go test -run TestBenchRegressionGuard .
package extractocol

import (
	"encoding/json"
	"os"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/obs"
	"extractocol/internal/trace"
)

const baselinePath = "BENCH_baseline.json"

// Multipliers a measurement may grow by before the guard fails. Wall time
// gets the larger factor because CI machines vary wildly; allocation counts
// are nearly deterministic, so a small factor already means a real change.
const (
	nsSlack     = 20
	allocsSlack = 3
)

type benchBaseline struct {
	App         string           `json:"app"`
	NsPerOp     int64            `json:"ns_per_op"`
	AllocsPerOp int64            `json:"allocs_per_op"`
	PhaseNS     map[string]int64 `json:"phase_ns"`
}

// guardApp is the corpus app the guard analyzes: the paper's running
// example, big enough to exercise every pipeline phase.
const guardApp = "radio reddit"

func measureBaseline(t *testing.T) benchBaseline {
	t.Helper()
	app, err := corpus.ByName(guardApp)
	if err != nil {
		t.Fatal(err)
	}

	var prof *obs.Profile
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := core.Analyze(app.Prog, core.NewOptions())
			if err != nil {
				b.Fatal(err)
			}
			prof = rep.Profile
		}
	})

	bl := benchBaseline{
		App:         guardApp,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		PhaseNS:     map[string]int64{},
	}
	for _, ph := range prof.Phases {
		bl.PhaseNS[ph.Name] = ph.DurationNS
	}
	return bl
}

func TestBenchRegressionGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews timing and allocation counts")
	}

	cur := measureBaseline(t)

	data, err := os.ReadFile(baselinePath)
	if os.IsNotExist(err) || os.Getenv("EXTRACTOCOL_BENCH_BASELINE") == "write" {
		out, merr := json.MarshalIndent(cur, "", "  ")
		if merr != nil {
			t.Fatal(merr)
		}
		if werr := os.WriteFile(baselinePath, append(out, '\n'), 0o644); werr != nil {
			t.Fatal(werr)
		}
		t.Logf("wrote %s: %s", baselinePath, out)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("corrupt %s: %v", baselinePath, err)
	}
	if base.App != cur.App {
		t.Fatalf("baseline measures %q, guard measures %q; regenerate the baseline", base.App, cur.App)
	}

	if cur.NsPerOp > base.NsPerOp*nsSlack {
		t.Errorf("analysis takes %d ns/op, baseline %d (limit %dx): investigate or regenerate %s",
			cur.NsPerOp, base.NsPerOp, nsSlack, baselinePath)
	}
	if cur.AllocsPerOp > base.AllocsPerOp*allocsSlack {
		t.Errorf("analysis makes %d allocs/op, baseline %d (limit %dx): investigate or regenerate %s",
			cur.AllocsPerOp, base.AllocsPerOp, allocsSlack, baselinePath)
	}
	for name, ns := range base.PhaseNS {
		// An absolute floor keeps sub-millisecond phases from flagging on
		// clock granularity alone.
		limit := ns*nsSlack + int64(5e6)
		if got := cur.PhaseNS[name]; got > limit {
			t.Errorf("phase %q takes %d ns, baseline %d (limit %d)", name, got, ns, limit)
		}
	}
	for name := range base.PhaseNS {
		if _, ok := cur.PhaseNS[name]; !ok {
			t.Errorf("phase %q vanished from the profile; regenerate %s if intentional", name, baselinePath)
		}
	}
}

// ---- Disabled-tracer zero-allocation guard ------------------------------------

// TestTracerDisabledZeroAlloc pins the tentpole's zero-cost contract
// absolutely (no slack factors) on BenchmarkTracerDisabled's loop body:
// the span-instrumented hot path must not allocate at all when tracing is
// off. Any alloc here multiplies by every taint fact of every slice of
// every app. The same body on a shard with only the flight recorder armed
// (the -flight hot path, recording into a fixed ring) must not allocate
// either.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on instrumented paths")
	}
	flight := obs.NewCollector()
	flight.EnableFlight()
	for name, s := range map[string]*obs.Shard{"disabled-tracer": obs.NewShard(), "flight-only": flight.NewShard()} {
		s.Add(obs.CtrTaintFacts, 1)
		if a := testing.AllocsPerRun(1000, func() {
			sp := s.Span(obs.CatTaintBackward, "bench")
			s.Add(obs.CtrTaintFacts, 1)
			sp.End()
		}); a != 0 {
			t.Errorf("%s hot path makes %v allocs/op, want 0", name, a)
		}
	}
}

// ---- Slicing-component guard -------------------------------------------------
//
// TestSliceBenchGuard pins the three slicing microbenchmarks
// (BenchmarkSliceFind, BenchmarkTaintBackward, BenchmarkAugment) against
// BENCH_slice.json with the same slack factors and the same
// EXTRACTOCOL_BENCH_BASELINE=write regeneration convention as the
// end-to-end guard above.

const sliceBaselinePath = "BENCH_slice.json"

type sliceOpBaseline struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

type sliceBenchBaseline struct {
	App string                     `json:"app"`
	Ops map[string]sliceOpBaseline `json:"ops"`
}

// measureSliceOps runs the committed slicing benchmarks themselves, so the
// guard and `go test -bench` always measure the same code path.
func measureSliceOps(t *testing.T) sliceBenchBaseline {
	t.Helper()
	bl := sliceBenchBaseline{App: guardApp, Ops: map[string]sliceOpBaseline{}}
	for name, fn := range map[string]func(*testing.B){
		"slice_find":     BenchmarkSliceFind,
		"taint_backward": BenchmarkTaintBackward,
		"augment":        BenchmarkAugment,
	} {
		res := testing.Benchmark(fn)
		if res.N == 0 {
			t.Fatalf("benchmark %q failed to run", name)
		}
		bl.Ops[name] = sliceOpBaseline{NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
	}
	return bl
}

func TestSliceBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews timing and allocation counts")
	}

	cur := measureSliceOps(t)

	data, err := os.ReadFile(sliceBaselinePath)
	if os.IsNotExist(err) || os.Getenv("EXTRACTOCOL_BENCH_BASELINE") == "write" {
		out, merr := json.MarshalIndent(cur, "", "  ")
		if merr != nil {
			t.Fatal(merr)
		}
		if werr := os.WriteFile(sliceBaselinePath, append(out, '\n'), 0o644); werr != nil {
			t.Fatal(werr)
		}
		t.Logf("wrote %s: %s", sliceBaselinePath, out)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var base sliceBenchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("corrupt %s: %v", sliceBaselinePath, err)
	}
	if base.App != cur.App {
		t.Fatalf("baseline measures %q, guard measures %q; regenerate the baseline", base.App, cur.App)
	}

	for name, b := range base.Ops {
		got, ok := cur.Ops[name]
		if !ok {
			t.Errorf("op %q vanished from the guard; regenerate %s if intentional", name, sliceBaselinePath)
			continue
		}
		if got.NsPerOp > b.NsPerOp*nsSlack {
			t.Errorf("%s takes %d ns/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.NsPerOp, b.NsPerOp, nsSlack, sliceBaselinePath)
		}
		if got.AllocsPerOp > b.AllocsPerOp*allocsSlack {
			t.Errorf("%s makes %d allocs/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.AllocsPerOp, b.AllocsPerOp, allocsSlack, sliceBaselinePath)
		}
	}

	// Absolute allocs/op ceilings on the de-stringed hot paths. Unlike the
	// slack checks above, these never move when the baseline file is
	// regenerated, so an allocation regression cannot be laundered through
	// EXTRACTOCOL_BENCH_BASELINE=write.
	for name, budget := range hotPathAllocBudgets {
		got, ok := cur.Ops[name]
		if !ok {
			t.Errorf("budgeted op %q missing from the guard", name)
			continue
		}
		if got.AllocsPerOp > budget {
			t.Errorf("%s makes %d allocs/op, absolute budget %d: the interned hot path has re-grown string churn",
				name, got.AllocsPerOp, budget)
		}
	}
}

// hotPathAllocBudgets pins the interning refactor's allocation contract as
// absolute ceilings: slice_find sits 5x under its pre-interning baseline
// (2919 allocs/op, see EXPERIMENTS.md) with headroom over the measured ~400;
// taint_backward covers a fresh engine's summary build (measured 26).
var hotPathAllocBudgets = map[string]int64{
	"slice_find":     583,
	"taint_backward": 40,
}

// ---- Pairing + warm-cache guard ------------------------------------------------
//
// TestPairingBenchGuard pins the two hot paths this PR optimized — the
// indexed pairing group analysis and the fully warm cached analysis —
// against BENCH_pairing.json, with the same slack factors and the same
// EXTRACTOCOL_BENCH_BASELINE=write regeneration convention as the guards
// above.

const pairingBaselinePath = "BENCH_pairing.json"

func measurePairingOps(t *testing.T) sliceBenchBaseline {
	t.Helper()
	bl := sliceBenchBaseline{App: guardApp, Ops: map[string]sliceOpBaseline{}}
	for name, fn := range map[string]func(*testing.B){
		"pairing_analyze": BenchmarkPairingAnalyze,
		"cache_warm_run":  BenchmarkCacheWarmRun,
	} {
		res := testing.Benchmark(fn)
		if res.N == 0 {
			t.Fatalf("benchmark %q failed to run", name)
		}
		bl.Ops[name] = sliceOpBaseline{NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
	}
	return bl
}

func TestPairingBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews timing and allocation counts")
	}

	cur := measurePairingOps(t)

	data, err := os.ReadFile(pairingBaselinePath)
	if os.IsNotExist(err) || os.Getenv("EXTRACTOCOL_BENCH_BASELINE") == "write" {
		out, merr := json.MarshalIndent(cur, "", "  ")
		if merr != nil {
			t.Fatal(merr)
		}
		if werr := os.WriteFile(pairingBaselinePath, append(out, '\n'), 0o644); werr != nil {
			t.Fatal(werr)
		}
		t.Logf("wrote %s: %s", pairingBaselinePath, out)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var base sliceBenchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("corrupt %s: %v", pairingBaselinePath, err)
	}
	if base.App != cur.App {
		t.Fatalf("baseline measures %q, guard measures %q; regenerate the baseline", base.App, cur.App)
	}

	for name, b := range base.Ops {
		got, ok := cur.Ops[name]
		if !ok {
			t.Errorf("op %q vanished from the guard; regenerate %s if intentional", name, pairingBaselinePath)
			continue
		}
		if got.NsPerOp > b.NsPerOp*nsSlack {
			t.Errorf("%s takes %d ns/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.NsPerOp, b.NsPerOp, nsSlack, pairingBaselinePath)
		}
		if got.AllocsPerOp > b.AllocsPerOp*allocsSlack {
			t.Errorf("%s makes %d allocs/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.AllocsPerOp, b.AllocsPerOp, allocsSlack, pairingBaselinePath)
		}
	}
}

// ---- Generated-corpus guard ----------------------------------------------------
//
// TestGenBenchGuard pins generation and end-to-end analysis of the fixed
// 100-app seeded corpus (BenchmarkGenCorpusRand, BenchmarkGenCorpusAnalyze)
// against BENCH_gen.json, with the same slack factors and the same
// EXTRACTOCOL_BENCH_BASELINE=write regeneration convention as the guards
// above. It keeps the differential harness affordable: a quadratic slip in
// generation or analysis multiplies across every equivalence axis.

const genBaselinePath = "BENCH_gen.json"

func measureGenOps(t *testing.T) sliceBenchBaseline {
	t.Helper()
	bl := sliceBenchBaseline{App: "gen-1729-100", Ops: map[string]sliceOpBaseline{}}
	for name, fn := range map[string]func(*testing.B){
		"gen_corpus_rand":    BenchmarkGenCorpusRand,
		"gen_corpus_analyze": BenchmarkGenCorpusAnalyze,
	} {
		res := testing.Benchmark(fn)
		if res.N == 0 {
			t.Fatalf("benchmark %q failed to run", name)
		}
		bl.Ops[name] = sliceOpBaseline{NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
	}
	return bl
}

func TestGenBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews timing and allocation counts")
	}

	cur := measureGenOps(t)

	data, err := os.ReadFile(genBaselinePath)
	if os.IsNotExist(err) || os.Getenv("EXTRACTOCOL_BENCH_BASELINE") == "write" {
		out, merr := json.MarshalIndent(cur, "", "  ")
		if merr != nil {
			t.Fatal(merr)
		}
		if werr := os.WriteFile(genBaselinePath, append(out, '\n'), 0o644); werr != nil {
			t.Fatal(werr)
		}
		t.Logf("wrote %s: %s", genBaselinePath, out)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var base sliceBenchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("corrupt %s: %v", genBaselinePath, err)
	}
	if base.App != cur.App {
		t.Fatalf("baseline measures %q, guard measures %q; regenerate the baseline", base.App, cur.App)
	}

	for name, b := range base.Ops {
		got, ok := cur.Ops[name]
		if !ok {
			t.Errorf("op %q vanished from the guard; regenerate %s if intentional", name, genBaselinePath)
			continue
		}
		if got.NsPerOp > b.NsPerOp*nsSlack {
			t.Errorf("%s takes %d ns/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.NsPerOp, b.NsPerOp, nsSlack, genBaselinePath)
		}
		if got.AllocsPerOp > b.AllocsPerOp*allocsSlack {
			t.Errorf("%s makes %d allocs/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.AllocsPerOp, b.AllocsPerOp, allocsSlack, genBaselinePath)
		}
	}
}

// ---- Interned-symbol guard -----------------------------------------------------
//
// TestInternBenchGuard pins the interning layer's own costs — the one-time
// dense-index build and the bitset algebra the hot loops run on
// (BenchmarkInternIndex, BenchmarkInternBitsUnion) — against
// BENCH_intern.json, with the same slack factors and the same
// EXTRACTOCOL_BENCH_BASELINE=write regeneration convention as the guards
// above. The layer buys its speedup with a fixed per-program cost; this
// guard keeps that cost fixed.

const internBaselinePath = "BENCH_intern.json"

func measureInternOps(t *testing.T) sliceBenchBaseline {
	t.Helper()
	bl := sliceBenchBaseline{App: guardApp, Ops: map[string]sliceOpBaseline{}}
	for name, fn := range map[string]func(*testing.B){
		"intern_index":      BenchmarkInternIndex,
		"intern_bits_union": BenchmarkInternBitsUnion,
	} {
		res := testing.Benchmark(fn)
		if res.N == 0 {
			t.Fatalf("benchmark %q failed to run", name)
		}
		bl.Ops[name] = sliceOpBaseline{NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
	}
	return bl
}

func TestInternBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews timing and allocation counts")
	}

	cur := measureInternOps(t)

	data, err := os.ReadFile(internBaselinePath)
	if os.IsNotExist(err) || os.Getenv("EXTRACTOCOL_BENCH_BASELINE") == "write" {
		out, merr := json.MarshalIndent(cur, "", "  ")
		if merr != nil {
			t.Fatal(merr)
		}
		if werr := os.WriteFile(internBaselinePath, append(out, '\n'), 0o644); werr != nil {
			t.Fatal(werr)
		}
		t.Logf("wrote %s: %s", internBaselinePath, out)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var base sliceBenchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("corrupt %s: %v", internBaselinePath, err)
	}
	if base.App != cur.App {
		t.Fatalf("baseline measures %q, guard measures %q; regenerate the baseline", base.App, cur.App)
	}

	for name, b := range base.Ops {
		got, ok := cur.Ops[name]
		if !ok {
			t.Errorf("op %q vanished from the guard; regenerate %s if intentional", name, internBaselinePath)
			continue
		}
		if got.NsPerOp > b.NsPerOp*nsSlack {
			t.Errorf("%s takes %d ns/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.NsPerOp, b.NsPerOp, nsSlack, internBaselinePath)
		}
		if got.AllocsPerOp > b.AllocsPerOp*allocsSlack {
			t.Errorf("%s makes %d allocs/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.AllocsPerOp, b.AllocsPerOp, allocsSlack, internBaselinePath)
		}
	}
}

// ---- Classifier-throughput guard -----------------------------------------------
//
// TestClassifyBenchGuard pins the signature matcher
// (BenchmarkClassifyThroughput's vm and vm_parallel variants) against
// BENCH_classify.json with the usual slack factors and
// EXTRACTOCOL_BENCH_BASELINE=write regeneration convention. The absolute
// floor of the compiled matcher over the interpretive oracle lives next
// to the oracle (internal/sigvm, TestCompiledClassifySpeedupFloor).

const classifyBaselinePath = "BENCH_classify.json"

func measureClassifyOps(t *testing.T) sliceBenchBaseline {
	t.Helper()
	bl := sliceBenchBaseline{App: guardApp, Ops: map[string]sliceOpBaseline{}}
	for name, opt := range map[string]trace.ClassifyOptions{
		"classify_vm":          {},
		"classify_vm_parallel": {Workers: -1},
	} {
		opt := opt
		res := testing.Benchmark(func(b *testing.B) { benchClassify(b, opt) })
		if res.N == 0 {
			t.Fatalf("benchmark %q failed to run", name)
		}
		bl.Ops[name] = sliceOpBaseline{NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
	}
	return bl
}

func TestClassifyBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews timing and allocation counts")
	}

	cur := measureClassifyOps(t)

	data, err := os.ReadFile(classifyBaselinePath)
	if os.IsNotExist(err) || os.Getenv("EXTRACTOCOL_BENCH_BASELINE") == "write" {
		out, merr := json.MarshalIndent(cur, "", "  ")
		if merr != nil {
			t.Fatal(merr)
		}
		if werr := os.WriteFile(classifyBaselinePath, append(out, '\n'), 0o644); werr != nil {
			t.Fatal(werr)
		}
		t.Logf("wrote %s: %s", classifyBaselinePath, out)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var base sliceBenchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("corrupt %s: %v", classifyBaselinePath, err)
	}
	if base.App != cur.App {
		t.Fatalf("baseline measures %q, guard measures %q; regenerate the baseline", base.App, cur.App)
	}

	for name, b := range base.Ops {
		got, ok := cur.Ops[name]
		if !ok {
			t.Errorf("op %q vanished from the guard; regenerate %s if intentional", name, classifyBaselinePath)
			continue
		}
		if got.NsPerOp > b.NsPerOp*nsSlack {
			t.Errorf("%s takes %d ns/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.NsPerOp, b.NsPerOp, nsSlack, classifyBaselinePath)
		}
		if got.AllocsPerOp > b.AllocsPerOp*allocsSlack {
			t.Errorf("%s makes %d allocs/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.AllocsPerOp, b.AllocsPerOp, allocsSlack, classifyBaselinePath)
		}
	}
}
