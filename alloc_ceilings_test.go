package extractocol

import (
	"errors"
	"runtime"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/obs"
	"extractocol/internal/report"
	"extractocol/internal/resultcache"
	"extractocol/internal/slice"
	"extractocol/internal/taint"
	"extractocol/internal/trace"
)

// ceilingRuns is how many counted calls perRun averages for a row that
// does not name its own number; it makes one more, uncounted, call first,
// so lazily built state does not count.
const ceilingRuns = 20

// perRun is testing.AllocsPerRun that also counts bytes: with GOMAXPROCS
// 1 it calls f once, uncounted, then runs times, and returns the
// allocations and the bytes allocated (runtime.MemStats Mallocs and
// TotalAlloc) per counted call, each rounded down.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return float64((after.Mallocs - before.Mallocs) / n), float64((after.TotalAlloc - before.TotalAlloc) / n)
}

// TestAllocCeilings holds every allocation contract of the root package
// in one table: one row per operation, each a ceiling on the allocations
// one call makes (perRun) and, for the cold analyses, on the bytes. Unlike
// time, a count hardly varies between runs (the largest rows by a few
// allocations), so each ceiling is at most 5% above the lowest count
// measured when the row was set, rounded down and never below the
// highest, and a row at 0 stays at 0; a bytes ceiling follows the same
// rule. The margin is for small legitimate drift, not noise: a 1.5x
// allocation regression in any row fails that row by name, and so does
// one in the bytes a cold analysis allocates, even when it adds no
// allocation. A ceiling may fall; raise one only with the measurement
// that explains it.
//
// Rows reuse the benchmarks' operations, so a row and its benchmark count
// the same code path. Time is not checked here: the Benchmark functions
// and perfbench measure it. AllocsPerRun runs with GOMAXPROCS 1, so a
// parallel row asks for its workers by number.
func TestAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on instrumented paths")
	}
	app := func(name string) *corpus.App {
		a, err := corpus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	container := func(a *corpus.App) []byte {
		data, err := dex.Encode(a.Prog)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	rr := app("radio reddit")
	rep, err := core.Analyze(rr.Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	profiled := *rep // keeps its per-run phase profile
	rep.Profile = nil
	entry, err := resultcache.EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}

	// Augment writes its argument, so every call, the uncounted first one
	// included, gets its own copy of the seed, made here: a copy alone
	// makes 2 allocations.
	prog, model, seed := augmentSeed(t)
	clones := make([]*taint.Result, ceilingRuns+1)
	for i := range clones {
		clones[i] = seed.Clone()
	}

	live := obs.NewCollector().NewShard()
	live.Observe(obs.HistSliceJob, 1)
	var disabled *obs.Shard
	flight := obs.NewCollector()
	flight.EnableFlight()
	var observed int64
	// spanOp is BenchmarkTracerDisabled's loop body on shard s.
	spanOp := func(s *obs.Shard) func() error {
		s.Add(obs.CtrTaintFacts, 1)
		return func() error {
			sp := s.Span(obs.CatTaintBackward, "bench")
			s.Add(obs.CtrTaintFacts, 1)
			sp.End()
			return nil
		}
	}
	// observeOp is BenchmarkHistogramRecord's loop body on shard s.
	observeOp := func(s *obs.Shard) func() error {
		return func() error {
			observed++
			s.Observe(obs.HistSliceJob, observed&0xffff)
			return nil
		}
	}

	for _, r := range []struct {
		name    string
		runs    int
		ceiling float64 // counts in the comment above each row
		bytes   float64 // bytes per call when set; 0 leaves bytes unchecked
		op      func() error
	}{
		// One cold analysis of radio reddit with the default options:
		// 2 079 to 2 080 allocations, 2 317 with registers in a map and
		// each method's CFG built per evaluation; 322 423 to 322 484
		// bytes, 372 455 to 372 529 then. A deep copy of the register
		// environment at every call or return, or a semantic model built
		// per call (218 allocations), crosses the count; sigbuild
		// allocating 1.5x its bytes crosses the bytes.
		{"analyze_cold", ceilingRuns, 2182, 338544, func() error {
			_, err := core.Analyze(rr.Prog, core.NewOptions())
			return err
		}},
		// The slicing components on radio reddit. slice.Find: 265, 2 919
		// before interning. A fresh engine's first backward slice: 20.
		// Augmenting a copy of that slice: 0.
		{"slice_find", ceilingRuns, 278, 0, sliceFindOp()},
		{"taint_backward", ceilingRuns, 21, 0, taintBackwardOp(t)},
		{"augment", ceilingRuns, 0, 0, func() error {
			res := clones[0]
			clones = clones[1:]
			slice.Augment(prog, model, res)
			if res.Size() < seed.Size() {
				return errors.New("augment shrank the slice")
			}
			return nil
		}},
		// pairing.Analyze over radio reddit's transactions: 33.
		{"pairing_analyze", ceilingRuns, 34, 0, pairingAnalyzeOp(t)},
		// core.Analyze served from a primed report cache: 164.
		{"cache_warm_run", ceilingRuns, 172, 0, cacheWarmRunOp(t)},
		// corpus.Rand(1729, 100): 60 262 to 60 266. Serial analysis of
		// those 100 apps: 159 899 to 159 923 allocations and 21 502 968 to
		// 21 505 336 bytes, 172 853 to 172 865 and about 25 467 000
		// before registers moved into a slice.
		{"gen_corpus_rand", 1, 63275, 0, genCorpusRandOp},
		{"gen_corpus_analyze", 1, 167893, 22578116, genCorpusAnalyzeOp(t)},
		// ir.NewIndex(radio reddit): 47. Cloning, joining and walking two
		// statement-universe bitsets: 1, the clone.
		{"intern_index", ceilingRuns, 49, 0, internIndexOp()},
		{"intern_bits_union", ceilingRuns, 1, 0, internBitsUnionOp()},
		// trace.Classify of 4 000 labeled entries with a precompiled
		// bundle: 36 on one worker, 82 on two.
		{"classify_vm", 5, 37, 0, classifyOp(t, trace.ClassifyOptions{})},
		{"classify_vm_2_workers", 5, 86, 0, classifyOp(t, trace.ClassifyOptions{Workers: 2})},
		// One analysis with registry, event log and flight recorder
		// armed: 2 197 to 2 201.
		{"analyze_telemetry_on", ceilingRuns, 2306, 0, analyzeTelemetryOnOp()},
		// The instrumented hot paths: a span around a counter on a shard
		// without a tracer, and on one with only the flight recorder
		// armed (a fixed ring), and a histogram observation on a live and
		// on a nil shard. Any allocation here multiplies by every taint
		// fact or job of every app.
		{"span_disabled_tracer", 1000, 0, 0, spanOp(obs.NewCollector().NewShard())},
		{"span_flight_only", 1000, 0, 0, spanOp(flight.NewShard())},
		{"hist_record", 1000, 0, 0, observeOp(live)},
		{"hist_disabled", 1000, 0, 0, observeOp(disabled)},
		// The warm path besides the cache lookup: decoding the container,
		// decoding the cached report and rendering it. dex.Decode: 156 on
		// radio reddit and 1 631 on Pinterest, 1 291 and 11 700 before
		// decoding in bulk. resultcache.DecodeReport: 133, 274 before.
		// One allocation per element (per instruction's Args, per pool
		// string, per class, method or field, per decoded cache string)
		// crosses them.
		{"dex_decode_radio_reddit", ceilingRuns, 163, 0, decodeOp(container(rr))},
		{"dex_decode_pinterest", ceilingRuns, 1712, 0, decodeOp(container(app("Pinterest")))},
		{"decode_report", ceilingRuns, 139, 0, func() error {
			_, err := resultcache.DecodeReport(entry)
			return err
		}},
		// A render makes one allocation, the copy of its document out of
		// the pooled buffer. report.Text: 1, 135 with a fmt.Fprintf per
		// line. report.JSON: 1, 109 through json.MarshalIndent. With the
		// profile: 1, 145 with the profile through json.MarshalIndent.
		{"report_text", ceilingRuns, 1, 0, func() error {
			report.Text(rep)
			return nil
		}},
		{"report_json", ceilingRuns, 1, 0, func() error {
			_, err := report.JSON(rep)
			return err
		}},
		{"report_json_profile", ceilingRuns, 1, 0, func() error {
			_, err := report.JSON(&profiled)
			return err
		}},
	} {
		t.Run(r.name, func(t *testing.T) {
			var opErr error
			allocs, bytes := perRun(r.runs, func() {
				if err := r.op(); err != nil {
					opErr = err
				}
			})
			if opErr != nil {
				t.Fatal(opErr)
			}
			if allocs > r.ceiling {
				t.Errorf("makes %v allocations, ceiling %v", allocs, r.ceiling)
			} else {
				t.Logf("%v allocations, ceiling %v", allocs, r.ceiling)
			}
			switch {
			case r.bytes == 0:
			case bytes > r.bytes:
				t.Errorf("allocates %.0f bytes, ceiling %.0f", bytes, r.bytes)
			default:
				t.Logf("%.0f bytes, ceiling %.0f", bytes, r.bytes)
			}
		})
	}
}

func decodeOp(data []byte) func() error {
	return func() error {
		_, err := dex.Decode(data)
		return err
	}
}
