// Fault-injection robustness: a deterministic injected failure in any
// pipeline phase must degrade the analysis — a report still ships, with
// diagnostics naming what was lost — never crash it. ci.sh runs these
// under -race, so the per-job recovery paths are exercised concurrently.
package extractocol

import (
	"strings"
	"testing"
	"time"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/evaluate"
	"extractocol/internal/ir"
	"extractocol/internal/report"
)

// TestFaultInjectionPerPhase injects one panic per app into each worker
// phase across the whole corpus. Every app must still produce a report,
// the panic must surface as a diagnostic somewhere in the corpus, and no
// app may gain transactions relative to the clean run.
func TestFaultInjectionPerPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the whole corpus once per phase")
	}
	apps := corpus.Apps()
	baseline := map[string]int{}
	for _, app := range apps {
		rep, err := core.Analyze(app.Prog, core.NewOptions())
		if err != nil {
			t.Fatalf("%s baseline: %v", app.Spec.Name, err)
		}
		baseline[app.Spec.Name] = len(rep.Transactions)
	}

	for _, phase := range []string{
		budget.PhaseSlice, budget.PhaseTaint, budget.PhaseSigbuild,
		budget.PhasePairing, budget.PhaseTxdep,
	} {
		phase := phase
		t.Run(phase, func(t *testing.T) {
			diags := 0
			for _, app := range apps {
				opts := core.NewOptions()
				// Site "" matches every probe; Once limits the blast
				// radius to the first job the phase runs for this app.
				opts.Faults = budget.NewFaultInjector(budget.Fault{
					Phase: phase, Kind: budget.FaultPanic, Once: true,
				})
				rep, err := core.Analyze(app.Prog, opts)
				if err != nil {
					t.Fatalf("%s: analysis aborted instead of degrading: %v", app.Spec.Name, err)
				}
				if rep == nil {
					t.Fatalf("%s: nil report", app.Spec.Name)
				}
				if got := len(rep.Transactions); got > baseline[app.Spec.Name] {
					t.Errorf("%s: %d transactions under fault, baseline %d",
						app.Spec.Name, got, baseline[app.Spec.Name])
				}
				for _, d := range rep.Diagnostics {
					if d.Kind != budget.DiagPanic && d.Kind != budget.DiagBudget && d.Kind != budget.DiagSkipped {
						t.Errorf("%s: unknown diagnostic kind %q", app.Spec.Name, d.Kind)
					}
				}
				diags += len(rep.Diagnostics)
			}
			if diags == 0 {
				t.Errorf("phase %s: injected panics produced no diagnostics anywhere in the corpus", phase)
			}
		})
	}
}

// TestDecodeFaultInjection covers the phase in front of the pipeline: a
// panic inside the container decoder must come back as an error.
func TestDecodeFaultInjection(t *testing.T) {
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	data, err := dex.Encode(app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dex.DecodeFaults(data, nil); err != nil {
		t.Fatalf("clean decode failed: %v", err)
	}
	inj := budget.NewFaultInjector(budget.Fault{
		Phase: budget.PhaseDecode, Kind: budget.FaultPanic,
	})
	p, err := dex.DecodeFaults(data, inj)
	if err == nil {
		t.Fatal("injected decoder panic surfaced as success")
	}
	if p != nil {
		t.Fatal("failed decode returned a program")
	}
	if !strings.Contains(err.Error(), "decoder panic") {
		t.Errorf("error %q does not identify the recovered panic", err)
	}
}

// TestEvaluateAggregatesAppErrors pins the corpus-runner contract: one
// broken app (validate-phase faults abort that app's analysis outright)
// must be reported in ParallelStats.Errors while the other 33 apps still
// evaluate.
func TestEvaluateAggregatesAppErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates the whole corpus")
	}
	target, err := corpus.ByName("Diode")
	if err != nil {
		t.Fatal(err)
	}
	cfg := evaluate.RunConfig{
		Faults: budget.NewFaultInjector(budget.Fault{
			Phase: budget.PhaseValidate,
			Site:  target.Prog.Manifest.Package,
			Kind:  budget.FaultPanic,
		}),
	}
	results, stats, err := evaluate.RunAllConfig(cfg)
	if err != nil {
		t.Fatalf("aggregated run returned a top-level error: %v", err)
	}
	total := len(corpus.Apps())
	if len(results) != total-1 {
		t.Errorf("got %d results, want %d (corpus minus the faulted app)", len(results), total-1)
	}
	if stats.AppErrors != 1 || len(stats.Errors) != 1 {
		t.Fatalf("AppErrors=%d Errors=%v, want exactly one", stats.AppErrors, stats.Errors)
	}
	if stats.Errors[0].App != "Diode" {
		t.Errorf("failed app = %q, want Diode", stats.Errors[0].App)
	}
	if !strings.Contains(stats.Errors[0].Err, "panic") {
		t.Errorf("error %q does not mention the recovered panic", stats.Errors[0].Err)
	}
	for _, r := range results {
		if r.App.Spec.Name == "Diode" {
			t.Error("faulted app still present in results")
		}
	}
}

// TestInjectedHangDegradesOnlyTargetApp is the acceptance scenario: a
// diverging fixpoint (injected hang) in one app under a 1-second deadline
// must complete with diagnostics for the affected transactions, while
// every other app's text report stays byte-identical to the unbudgeted
// run.
func TestInjectedHangDegradesOnlyTargetApp(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the whole corpus twice")
	}
	const targetName = "radio reddit"
	target, err := corpus.ByName(targetName)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := core.Analyze(target.Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Transactions) == 0 {
		t.Fatal("target app has no transactions to degrade")
	}
	// Address the hang at the first transaction's demarcation point: the
	// backward slice of that DP spins until the deadline trips.
	site, _, _ := strings.Cut(clean.Transactions[0].DP, "@")

	for _, app := range corpus.Apps() {
		app := app
		t.Run(app.Spec.Name, func(t *testing.T) {
			t.Parallel()
			base, err := core.Analyze(app.Prog, core.NewOptions())
			if err != nil {
				t.Fatal(err)
			}
			opts := core.NewOptions()
			opts.Deadline = time.Second
			opts.Faults = budget.NewFaultInjector(budget.Fault{
				Phase: budget.PhaseTaint, Site: site, Kind: budget.FaultHang,
			})
			rep, err := core.Analyze(app.Prog, opts)
			if err != nil {
				t.Fatalf("budgeted analysis aborted: %v", err)
			}
			if app.Spec.Name == targetName {
				if len(rep.Diagnostics) == 0 {
					t.Fatal("hung app shipped no diagnostics")
				}
				sawBudget := false
				for _, d := range rep.Diagnostics {
					if d.Kind == budget.DiagBudget || d.Kind == budget.DiagSkipped {
						sawBudget = true
					}
				}
				if !sawBudget {
					t.Errorf("no budget diagnostics on hung app: %v", rep.Diagnostics)
				}
				if len(rep.Transactions) >= len(base.Transactions) {
					t.Errorf("hang dropped nothing: %d transactions, baseline %d",
						len(rep.Transactions), len(base.Transactions))
				}
				return
			}
			if len(rep.Diagnostics) != 0 {
				t.Fatalf("unaffected app has diagnostics: %v", rep.Diagnostics)
			}
			b, g := normalizeReport(report.Text(base)), normalizeReport(report.Text(rep))
			if b != g {
				t.Errorf("report changed under budget\n--- clean ---\n%s\n--- budgeted ---\n%s", b, g)
			}
		})
	}
}

// A superclass cycle would send every chain walker (dispatch resolution,
// CHA, implementer lookup) into a loop no budget check interrupts.
// Validate rejects the cycle, so Analyze must fail fast with an error
// instead of hanging.
func TestSuperclassCycleRejected(t *testing.T) {
	p := ir.NewProgram("t.cycle")
	a := p.AddClass(&ir.Class{Name: "t.cycle.A", Super: "t.cycle.B"})
	p.AddClass(&ir.Class{Name: "t.cycle.B", Super: "t.cycle.A"})
	b := ir.NewMethod(a, "onCreate", false, nil, "void")
	b.InvokeVoid("t.cycle.A.refresh", b.This())
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.cycle.A.onCreate", Kind: ir.EventCreate}}

	done := make(chan error, 1)
	go func() {
		_, err := core.Analyze(p, core.NewOptions())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "superclass chain is cyclic") {
			t.Fatalf("Analyze = %v, want a cyclic superclass chain error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Analyze still running after 1s on a cyclic superclass chain")
	}
}
