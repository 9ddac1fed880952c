package taint

import (
	"fmt"
	"strings"
	"testing"

	"extractocol/internal/budget"
	"extractocol/internal/callgraph"
	"extractocol/internal/corpus"
	"extractocol/internal/ir"
	"extractocol/internal/semmodel"
)

// ForwardFacts runs forward propagation from a prepared set of local facts
// given as (method, register) pairs. It is the string-keyed form of
// ForwardDefs, which pairing seeds through, for tests that name their seeds.
func (e *Engine) ForwardFacts(seeds map[StmtID]int) *Result {
	e.ensure()
	ss := make([]seed, 0, len(seeds))
	site := "flow-check"
	for s, reg := range seeds {
		if site == "flow-check" || s.Method < site {
			site = s.Method
		}
		if mid, ok := e.idx.MethodID(s.Method); ok {
			ss = append(ss, seed{rank: e.idx.RefRank(mid), method: mid, index: s.Index, reg: int32(reg)})
		}
	}
	return e.forwardSeeds(ss, site)
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
	seeds := map[StmtID]int{}
	for _, cls := range app.Prog.AppClasses() {
		for _, m := range cls.Methods {
			if len(m.Instrs) > 0 {
				seeds[StmtID{Method: m.Ref(), Index: 0}] = 0
			}
		}
	}
	if len(seeds) < 8 {
		t.Fatalf("only %d seed methods, want a wide seed set", len(seeds))
	}

	// The same contract for the reference replay is pinned by
	// TestLegacyReplayMatchesDense.
	project := func(iters int64) string {
		eng := NewEngine(app.Prog, model, cg)
		eng.Budget = budget.New(budget.Limits{FixpointIters: iters})
		res := eng.ForwardFacts(seeds)
		if iters > 0 && res.Truncated == nil {
			t.Fatalf("FixpointIters=%d did not truncate; ordering is not observable", iters)
		}
		var sb strings.Builder
		res.idx.EachStmt(&res.stmts, func(m *ir.Method, _ uint32, idx int) bool {
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
