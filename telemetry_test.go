// Live telemetry plane, end to end: the event stream brackets an analysis,
// phase latency histograms carry plausible quantiles into the profile, a
// live ops endpoint exposes Prometheus series mid-run, and the flight
// recorder lands recent worker spans in the diagnostic of an injected
// panic. The benchmarks at the bottom pin the plane's costs: recording one
// histogram observation is allocation-free, and the disabled plane adds
// nothing to the span-instrumented hot path.
package extractocol

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/obs"
	"extractocol/internal/ops"
)

// TestAnalyzeEventStream wires an event log into one analysis through its
// registry and checks the JSONL stream: monotonic sequence numbers from 1,
// a run_start/run_end bracket, and one phase_start/phase_end pair per
// profiled phase.
func TestAnalyzeEventStream(t *testing.T) {
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ev := obs.NewEventLog(&buf)
	reg := obs.NewRegistry()
	reg.LogEvents(ev)
	opts := core.NewOptions()
	opts.Obs = reg
	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Close(); err != nil {
		t.Fatal(err)
	}

	var events []obs.Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
		if e.App != rep.Package {
			t.Errorf("event %d names app %q, want %q", i, e.App, rep.Package)
		}
	}
	if events[0].Type != obs.EvRunStart {
		t.Errorf("first event is %q, want run_start", events[0].Type)
	}
	if last := events[len(events)-1]; last.Type != obs.EvRunEnd || last.DurNS <= 0 {
		t.Errorf("last event is %q (dur %d), want run_end with a duration", last.Type, last.DurNS)
	}
	starts := map[string]int{}
	ends := map[string]int{}
	for _, e := range events {
		switch e.Type {
		case obs.EvPhaseStart:
			starts[e.Phase]++
		case obs.EvPhaseEnd:
			ends[e.Phase]++
			if e.DurNS < 0 {
				t.Errorf("phase %q ended with negative duration", e.Phase)
			}
		}
	}
	for _, ph := range rep.Profile.Phases {
		if starts[ph.Name] != 1 || ends[ph.Name] != 1 {
			t.Errorf("phase %q: %d starts, %d ends, want 1/1", ph.Name, starts[ph.Name], ends[ph.Name])
		}
	}
}

// TestAnalyzeProfileQuantiles checks the tentpole's profile surface: every
// profiled phase has a latency histogram whose sum equals the phase
// duration and whose quantiles are ordered, and the whole-analysis
// histogram covers the run.
func TestAnalyzeProfileQuantiles(t *testing.T) {
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	prof := rep.Profile
	for _, ph := range prof.Phases {
		h := prof.Hist(obs.HistPhasePrefix + ph.Name)
		if h == nil {
			t.Errorf("phase %q has no latency histogram", ph.Name)
			continue
		}
		if h.Count != 1 || h.SumNS != ph.DurationNS {
			t.Errorf("phase %q histogram: count %d sum %d, want 1 observation summing to %d",
				ph.Name, h.Count, h.SumNS, ph.DurationNS)
		}
		if h.P50NS <= 0 || h.P50NS > h.P90NS || h.P90NS > h.P99NS || h.P99NS > h.MaxNS {
			t.Errorf("phase %q quantiles out of order: p50=%d p90=%d p99=%d max=%d",
				ph.Name, h.P50NS, h.P90NS, h.P99NS, h.MaxNS)
		}
	}
	if h := prof.Hist(obs.HistAnalyze); h == nil || h.Count != 1 {
		t.Errorf("whole-analysis histogram missing or empty: %+v", h)
	}
	// Per-job histograms fan out over workers; the slice phase always runs
	// at least one job on this app.
	if h := prof.Hist(obs.HistSliceJob); h == nil || h.Count == 0 {
		t.Errorf("slice job histogram missing or empty: %+v", h)
	}
}

// TestOpsEndpointLiveScrape runs analyses registered with a live registry
// and scrapes the ops endpoint over real HTTP: /metrics must expose the
// per-phase latency histogram series and counter totals, /healthz must
// report ok.
func TestOpsEndpointLiveScrape(t *testing.T) {
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv, err := ops.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opts := core.NewOptions()
	opts.Obs = reg
	if _, err := core.Analyze(app.Prog, opts); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"extractocol_runs_completed_total 1",
		`extractocol_phase_latency_seconds_bucket{phase="slice",le="+Inf"} 1`,
		`extractocol_phase_seconds_total{phase="callgraph"}`,
		"extractocol_slice_jobs_total",
		"extractocol_budget_exceeded_total 0",
		"extractocol_analyze_latency_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
	health := get("/healthz")
	if !strings.Contains(health, `"status":"ok"`) {
		t.Errorf("/healthz not ok: %s", health)
	}
}

// TestFlightRecorderInPanicDiagnostic injects a panic into each phase that
// dumps flight history, with the flight recorder armed: the resulting
// diagnostic must carry the recent spans of its track, ending with the
// span that died, still open ("…"). Unarmed, the same fault must produce
// no flight payload — the recorder is strictly opt-in so degraded reports
// stay deterministic.
func TestFlightRecorderInPanicDiagnostic(t *testing.T) {
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(phase string, flight bool) *core.Report {
		opts := core.NewOptions()
		opts.Flight = flight
		opts.Faults = budget.NewFaultInjector(budget.Fault{
			Phase: phase, Kind: budget.FaultPanic, Once: true,
		})
		rep, err := core.Analyze(app.Prog, opts)
		if err != nil {
			t.Fatalf("%s: analysis aborted instead of degrading: %v", phase, err)
		}
		return rep
	}

	for _, tc := range []struct {
		phase string
		// last returns the expected prefix of the dump's last line: the
		// job span named after the diagnostic's site, or the phase span
		// for a coordinator-level fault.
		last func(d budget.Diagnostic) string
	}{
		{budget.PhaseSlice, func(d budget.Diagnostic) string { return obs.CatSliceJob + " " + d.Site + " " }},
		{budget.PhasePairing, func(d budget.Diagnostic) string { return obs.CatPairFlow + " " + d.Site + " " }},
		{budget.PhaseSigbuild, func(d budget.Diagnostic) string { return obs.CatSigbuildJob + " " + d.Site + " " }},
		{budget.PhaseTxdep, func(budget.Diagnostic) string { return obs.CatPhase + " " + obs.PhaseTxdep + " " }},
	} {
		dumps := 0
		for _, d := range analyze(tc.phase, true).Diagnostics {
			if d.Kind != budget.DiagPanic || d.Phase != tc.phase {
				continue
			}
			if len(d.Flight) == 0 {
				t.Errorf("%s panic at %q carries no flight dump", tc.phase, d.Site)
				continue
			}
			dumps++
			for _, line := range d.Flight {
				if !strings.Contains(line, "ns") {
					t.Errorf("%s: flight line %q has no timing", tc.phase, line)
				}
			}
			last := d.Flight[len(d.Flight)-1]
			if !strings.HasPrefix(last, tc.last(d)) || !strings.HasSuffix(last, "ns+…") {
				t.Errorf("%s: last flight line %q, want the open span %q…", tc.phase, last, tc.last(d))
			}
		}
		if dumps == 0 {
			t.Errorf("%s: no panic diagnostic with a flight dump", tc.phase)
		}

		for _, d := range analyze(tc.phase, false).Diagnostics {
			if len(d.Flight) > 0 {
				t.Errorf("%s: flight recorder off, but diagnostic %q carries a dump", tc.phase, d.Site)
			}
		}
	}
}

// ---- Telemetry cost pins -------------------------------------------------------

// BenchmarkHistogramRecord measures one steady-state histogram observation
// on a shard — the exact operation every slice job, sigbuild job and
// classified entry performs. The contract (pinned by
// TestHistogramRecordZeroAlloc) is 0 allocs/op: bucketing is two shifts
// and a bits.Len64 into a fixed array.
func BenchmarkHistogramRecord(b *testing.B) {
	s := obs.NewShard()
	// Pre-insert the name: steady state observes into an existing Hist.
	s.Observe(obs.HistSliceJob, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(obs.HistSliceJob, int64(i)&0xffff)
	}
}

// BenchmarkHistogramDisabled measures the same call sites with telemetry
// fully off — the nil shard every worker gets when no collector is
// threaded through. This is what the default analysis and match paths pay:
// a nil check.
func BenchmarkHistogramDisabled(b *testing.B) {
	var s *obs.Shard
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(obs.HistSliceJob, int64(i))
	}
}

// TestHistogramRecordZeroAlloc pins both contracts absolutely (no slack
// factors) on the benchmarks' loop bodies: recording into a live histogram
// must not allocate, and the disabled path must not allocate.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on instrumented paths")
	}
	live := obs.NewShard()
	live.Observe(obs.HistSliceJob, 1)
	var disabled *obs.Shard
	var i int64
	for name, s := range map[string]*obs.Shard{"record": live, "disabled": disabled} {
		if a := testing.AllocsPerRun(1000, func() {
			i++
			s.Observe(obs.HistSliceJob, i&0xffff)
		}); a != 0 {
			t.Errorf("histogram %s path makes %v allocs/op, want 0", name, a)
		}
	}
}

// ---- Telemetry-plane guard -----------------------------------------------------
//
// TestObsBenchGuard pins the telemetry plane's costs against BENCH_obs.json
// with the usual slack factors and EXTRACTOCOL_BENCH_BASELINE=write
// regeneration convention: the histogram record path, and one end-to-end
// analysis with the full plane on (registry, event log to a discard
// writer, flight recorder) — the overhead column of EXPERIMENTS.md.

const obsBaselinePath = "BENCH_obs.json"

// BenchmarkAnalyzeTelemetryOn is BENCH_baseline's analysis with every
// telemetry hook armed; comparing ns/op against BENCH_baseline.json gives
// the plane's end-to-end overhead.
func BenchmarkAnalyzeTelemetryOn(b *testing.B) {
	app, err := corpus.ByName(guardApp)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.LogEvents(obs.NewEventLog(io.Discard))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.NewOptions()
		opts.Obs = reg
		opts.Flight = true
		if _, err := core.Analyze(app.Prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func measureObsOps(t *testing.T) sliceBenchBaseline {
	t.Helper()
	bl := sliceBenchBaseline{App: guardApp, Ops: map[string]sliceOpBaseline{}}
	for name, fn := range map[string]func(*testing.B){
		"hist_record":          BenchmarkHistogramRecord,
		"analyze_telemetry_on": BenchmarkAnalyzeTelemetryOn,
	} {
		res := testing.Benchmark(fn)
		if res.N == 0 {
			t.Fatalf("benchmark %q failed to run", name)
		}
		bl.Ops[name] = sliceOpBaseline{NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
	}
	return bl
}

func TestObsBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews timing and allocation counts")
	}

	cur := measureObsOps(t)

	data, err := os.ReadFile(obsBaselinePath)
	if os.IsNotExist(err) || os.Getenv("EXTRACTOCOL_BENCH_BASELINE") == "write" {
		out, merr := json.MarshalIndent(cur, "", "  ")
		if merr != nil {
			t.Fatal(merr)
		}
		if werr := os.WriteFile(obsBaselinePath, append(out, '\n'), 0o644); werr != nil {
			t.Fatal(werr)
		}
		t.Logf("wrote %s: %s", obsBaselinePath, out)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var base sliceBenchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("corrupt %s: %v", obsBaselinePath, err)
	}
	if base.App != cur.App {
		t.Fatalf("baseline measures %q, guard measures %q; regenerate the baseline", base.App, cur.App)
	}

	for name, b := range base.Ops {
		got, ok := cur.Ops[name]
		if !ok {
			t.Errorf("op %q vanished from the guard; regenerate %s if intentional", name, obsBaselinePath)
			continue
		}
		if got.NsPerOp > b.NsPerOp*nsSlack {
			t.Errorf("%s takes %d ns/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.NsPerOp, b.NsPerOp, nsSlack, obsBaselinePath)
		}
		if got.AllocsPerOp > b.AllocsPerOp*allocsSlack {
			t.Errorf("%s makes %d allocs/op, baseline %d (limit %dx): investigate or regenerate %s",
				name, got.AllocsPerOp, b.AllocsPerOp, allocsSlack, obsBaselinePath)
		}
	}
}
