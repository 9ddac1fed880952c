// Parallel-vs-serial determinism: core.Analyze fans transaction extraction
// and signature building across worker pools, and this test pins the
// contract that parallelism is invisible in the output — for every corpus
// app, the serial (Workers=1) and parallel text reports are byte-identical
// once wall-clock lines are removed. ci.sh runs this under -race, which
// also exercises the shared analysis caches for data races.
package extractocol

import (
	"fmt"
	"strings"
	"testing"

	"extractocol/internal/budget"
	"extractocol/internal/callgraph"
	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/report"
	"extractocol/internal/semmodel"
	"extractocol/internal/taint"
)

// normalizeReport strips the only time-dependent lines of a text report
// (total analysis time and the per-phase breakdown).
func normalizeReport(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "analysis time:") || strings.HasPrefix(line, "  phases:") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

func TestParallelAnalyzeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the whole corpus twice")
	}
	for _, app := range corpus.Apps() {
		app := app
		t.Run(app.Spec.Name, func(t *testing.T) {
			t.Parallel()
			serialOpts := core.NewOptions()
			serialOpts.Workers = 1
			serial, err := core.Analyze(app.Prog, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := core.Analyze(app.Prog, core.NewOptions())
			if err != nil {
				t.Fatal(err)
			}
			s, p := normalizeReport(report.Text(serial)), normalizeReport(report.Text(parallel))
			if s != p {
				t.Errorf("parallel report differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
			}
		})
	}
}

// TestBudgetedParallelDeterministic extends the determinism contract to
// degraded runs: with stateless fault rules armed at fixed probe sites,
// serial and parallel analyses must render byte-identical reports including
// the diagnostics section — which pins the (phase, site, detail) sort of
// Report.Diagnostics against worker-completion order. The rules deliberately
// use only phase+site addressing (no After/Once counters), because probe
// counting is scheduling-dependent under a parallel pool.
func TestBudgetedParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the whole corpus twice")
	}
	// Fresh injector per run: rule state (probe counts) is per-instance.
	faults := func() *budget.FaultInjector {
		return budget.NewFaultInjector(
			budget.Fault{Phase: budget.PhaseSlice, Site: "@1", Kind: budget.FaultPanic},
			budget.Fault{Phase: budget.PhaseSigbuild, Site: "@2", Kind: budget.FaultPanic},
			budget.Fault{Phase: budget.PhasePairing, Site: "@3", Kind: budget.FaultPanic},
		)
	}
	for _, app := range corpus.Apps() {
		app := app
		t.Run(app.Spec.Name, func(t *testing.T) {
			t.Parallel()
			serialOpts := core.NewOptions()
			serialOpts.Workers = 1
			serialOpts.Faults = faults()
			serial, err := core.Analyze(app.Prog, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			parOpts := core.NewOptions()
			parOpts.Faults = faults()
			parallel, err := core.Analyze(app.Prog, parOpts)
			if err != nil {
				t.Fatal(err)
			}
			s, p := normalizeReport(report.Text(serial)), normalizeReport(report.Text(parallel))
			if s != p {
				t.Errorf("budgeted parallel report differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
			}
		})
	}
}

// The analysis-cache hit/miss counters must surface in Report.Profile.
// Diode (the paper's Fig. 3 walkthrough app) exercises all three caches:
// its slices cross methods, fields and async callbacks.
func TestCacheCountersInProfile(t *testing.T) {
	app, err := corpus.ByName("Diode")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	prof := rep.Profile
	// Misses are deterministic lower bounds (something was built); hits
	// prove reuse actually happened.
	for _, name := range []string{
		obs.CtrCacheReachableHits, obs.CtrCacheReachableMisses,
		obs.CtrCacheInferTypesHits, obs.CtrCacheInferTypesMisses,
		obs.CtrCacheSummaryHits, obs.CtrCacheSummaryMisses,
	} {
		if _, ok := prof.Counters[name]; !ok {
			t.Errorf("counter %s missing from profile", name)
		}
	}
	if prof.Counter(obs.CtrCacheInferTypesHits) == 0 {
		t.Error("type inference cache saw no reuse")
	}
	if prof.Counter(obs.CtrCacheReachableHits) == 0 {
		t.Error("reachability cache saw no reuse")
	}
	if prof.Counter(obs.CtrCacheSummaryHits) == 0 {
		t.Error("summary cache saw no reuse")
	}
	if prof.Counter(obs.CtrSliceJobs) == 0 {
		t.Error("slice pool recorded no jobs")
	}
	if w := prof.Gauges[obs.GaugeSliceWorkers]; w < 1 {
		t.Errorf("slice_workers gauge = %v, want >= 1", w)
	}
	if u := prof.Gauges[obs.GaugeSliceUtilization]; u < 0 || u > 1.05 {
		t.Errorf("slice_worker_utilization = %v, want within [0, 1.05]", u)
	}
}

// TestForwardFactsSeedOrderDeterministic pins the seeding contract behind
// the pairing flow checks: ForwardFacts takes its seeds as a Go map, and
// every observable — the reached statement set and, in particular, where a
// truncating fixpoint budget cuts propagation off — must be independent of
// map iteration order. The tight budget is what makes ordering visible: a
// worklist seeded in map order would truncate at a different frontier from
// run to run, while the sorted seed walk always truncates at the same one.
func TestForwardFactsSeedOrderDeterministic(t *testing.T) {
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	model := semmodel.Default()
	cg := callgraph.Build(app.Prog, model)

	// Seed one local fact per app method (first statement, register 0) so
	// the worklist starts wide: with many seeds, truncation order is the
	// first thing an unsorted walk would get wrong.
	seeds := map[taint.StmtID]int{}
	for _, cls := range app.Prog.AppClasses() {
		for _, m := range cls.Methods {
			if len(m.Instrs) > 0 {
				seeds[taint.StmtID{Method: m.Ref(), Index: 0}] = 0
			}
		}
	}
	if len(seeds) < 8 {
		t.Fatalf("only %d seed methods, want a wide seed set", len(seeds))
	}

	// The same contract for the reference replay is pinned in package taint
	// (TestLegacyReplayMatchesDense).
	project := func(iters int64) string {
		eng := taint.NewEngine(app.Prog, model, cg)
		eng.Budget = budget.New(budget.Limits{FixpointIters: iters})
		res := eng.ForwardFacts(seeds)
		if iters > 0 && res.Truncated == nil {
			t.Fatalf("FixpointIters=%d did not truncate; ordering is not observable", iters)
		}
		var sb strings.Builder
		res.EachStmt(func(m *ir.Method, idx int) bool {
			fmt.Fprintf(&sb, "%s#%d\n", m.Ref(), idx)
			return true
		})
		return sb.String()
	}

	want := project(40)
	for run := 1; run < 8; run++ {
		if got := project(40); got != want {
			t.Fatalf("truncated result diverged on run %d\n--- first ---\n%s\n--- run %d ---\n%s",
				run, want, run, got)
		}
	}
	// Unbudgeted fixpoints must agree too (and with each other across runs,
	// which the pinned-report suite already covers corpus-wide).
	if full := project(0); full == "" {
		t.Fatal("empty unbudgeted result")
	}
}
