package callgraph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"extractocol/internal/callgraph"
	"extractocol/internal/corpus"
	"extractocol/internal/ir"
	"extractocol/internal/semmodel"
)

// hashEdges writes every edge of g into h: for each method of p, in class
// and method order, its Callees in order and then its Callers in order.
// Edge order is observable to every caller of Callees and Callers, so a
// reordering that leaves every report unchanged still moves the hash.
func hashEdges(h hash.Hash, p *ir.Program, g *callgraph.Graph) {
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			ref := m.Ref()
			fmt.Fprintf(h, "method %s\n", ref)
			for _, e := range g.Callees(ref) {
				fmt.Fprintf(h, "out %s %d %s %t\n", e.Caller, e.Site, e.Callee, e.Implicit)
			}
			for _, e := range g.Callers(ref) {
				fmt.Fprintf(h, "in %s %d %s %t\n", e.Caller, e.Site, e.Callee, e.Implicit)
			}
		}
	}
}

// TestEdgeHashPinned pins the exact call graph Build produces, edge order
// included, on the Table 1 corpus, a seeded generated corpus and the CHA
// and interface-dispatch fixtures. The report digest only sees edges
// through their effect on signatures; this test sees the edges.
func TestEdgeHashPinned(t *testing.T) {
	named := func(apps []*corpus.App) (names []string, progs []*ir.Program) {
		for _, a := range apps {
			names = append(names, a.Spec.Name)
			progs = append(progs, a.Prog)
		}
		return names, progs
	}
	sets := []struct {
		name, want string
		apps       func() ([]string, []*ir.Program)
	}{
		{"corpus", "c146c1d58dc1a1508f6ba4f8eee61ef5a54681f3051e9fccec2a694c3c8aff1f", func() ([]string, []*ir.Program) { return named(corpus.Apps()) }},
		{"rand-1729-100", "05c2445ed5c0c50af8e48d31cd49a633c175e322147c0141572b7ee234da414b", func() ([]string, []*ir.Program) { return named(corpus.Rand(1729, 100)) }},
		{"fixtures", "b88da26a6a778f60bfdba1ab375d0a448fb0997a7b77c2945858c9e391f6e4d3", func() ([]string, []*ir.Program) {
			return []string{"cha", "interface"},
				[]*ir.Program{callgraph.FixtureCHA(), callgraph.FixtureInterface()}
		}},
	}
	model := semmodel.Default()
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			h := sha256.New()
			names, progs := set.apps()
			for i, p := range progs {
				fmt.Fprintf(h, "app %s\n", names[i])
				hashEdges(h, p, callgraph.Build(p, model))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != set.want {
				t.Errorf("edge hash = %s, want %s", got, set.want)
			}
		})
	}
}

var sinkGraph *callgraph.Graph

// BenchmarkCallgraphBuild builds the call graph of Pinterest, the largest
// multi-class Table 1 app (151 classes), where per-call-site hierarchy
// lookups dominated Build.
func BenchmarkCallgraphBuild(b *testing.B) {
	app, err := corpus.ByName("Pinterest")
	if err != nil {
		b.Fatal(err)
	}
	model := semmodel.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph = callgraph.Build(app.Prog, model)
	}
}
