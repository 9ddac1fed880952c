package callgraph_test

import (
	"testing"

	"extractocol/internal/callgraph"
	"extractocol/internal/corpus"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
)

// TestReachableBitsMatchesWalk holds the dense reachability walk to the
// string-keyed walk it replaced, for every analysis root of the Table 1
// corpus and a seeded generated corpus, and pins its memoization: a second
// query returns the same set, and each root costs exactly one miss.
func TestReachableBitsMatchesWalk(t *testing.T) {
	model := semmodel.Default()
	roots := 0
	for _, app := range append(corpus.Apps(), corpus.Rand(1729, 100)...) {
		g := callgraph.Build(app.Prog, model)
		x := g.Index()
		distinct := map[string]bool{}
		for _, root := range callgraph.AnalysisRoots(app.Prog) {
			want := callgraph.ReachableRefs(g, []string{root})
			got := g.ReachableBits(root)
			if got.Count() != len(want) {
				t.Fatalf("%s: ReachableBits(%s) has %d methods, the walk %d",
					app.Spec.Name, root, got.Count(), len(want))
			}
			got.Each(func(id uint32) bool {
				if ref := x.MethodAt(id).Ref(); !want[ref] {
					t.Fatalf("%s: ReachableBits(%s) holds %s, the walk does not", app.Spec.Name, root, ref)
				}
				return true
			})
			if again := g.ReachableBits(root); again != got {
				t.Fatalf("%s: ReachableBits(%s) returned a new set on the second query", app.Spec.Name, root)
			}
			distinct[root] = true
			roots++
		}
		col := obs.NewCollector()
		g.DrainCacheCounters(col)
		if got := col.Snapshot().Counter(obs.CtrCacheReachableMisses); got != int64(len(distinct)) {
			t.Fatalf("%s: %d reachable misses for %d roots", app.Spec.Name, got, len(distinct))
		}
	}
	if roots < 500 {
		t.Fatalf("only %d roots compared; the sweep lost its coverage", roots)
	}
}

// CalleesAt is a subslice of the caller's sorted out-edges: resolving every
// call site of Pinterest, the largest Table 1 app, allocates nothing.
func TestCalleesAtAllocs(t *testing.T) {
	app, err := corpus.ByName("Pinterest")
	if err != nil {
		t.Fatal(err)
	}
	g := callgraph.Build(app.Prog, semmodel.Default())
	x := g.Index()
	edges := 0
	sweep := func() {
		edges = 0
		for id := uint32(0); id < uint32(x.NumMethods()); id++ {
			m := x.MethodAt(id)
			for i := range m.Instrs {
				if m.Instrs[i].Op == ir.OpInvoke {
					edges += len(g.CalleesAt(id, i))
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
		t.Fatalf("CalleesAt sweep allocated %.1f times, want 0", allocs)
	}
	if edges == 0 {
		t.Fatal("no call edges resolved; the sweep tests nothing")
	}
}
