package taint

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"extractocol/internal/callgraph"
	"extractocol/internal/corpus"
	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
)

// sharedHelperApp: two click handlers call a common buildAndFetch helper
// with different constant URIs, and a third field-mediated flow crosses an
// async boundary. This exercises universe-gated summary entries (the helper
// is summarized once but replayed under two different universes) and the
// heap access index.
func sharedHelperApp() *ir.Program {
	p := ir.NewProgram("t.sum")
	c := p.AddClass(&ir.Class{
		Name:   "t.sum.A",
		Fields: []*ir.Field{{Name: "token", Type: "java.lang.String"}},
	})

	helper := ir.NewMethod(c, "buildAndFetch", false, []string{"java.lang.String"}, "java.lang.String")
	uri := 1 // first declared parameter register
	req := helper.New("org.apache.http.client.methods.HttpGet")
	helper.InvokeSpecial(getInit, req, uri)
	cl := helper.New("org.apache.http.impl.client.DefaultHttpClient")
	helper.InvokeSpecial(clInit, cl)
	resp := helper.Invoke(execRef, cl, req)
	ent := helper.Invoke(getEnt, resp)
	body := helper.InvokeStatic(entCont, ent)
	helper.Return(body)
	helper.Done()

	h1 := ir.NewMethod(c, "onClickOne", false, nil, "void")
	u1 := h1.ConstStr("https://s.example.com/one")
	b1 := h1.Invoke("t.sum.A.buildAndFetch", h1.This(), u1)
	h1.FieldPut(h1.This(), "token", b1)
	h1.ReturnVoid()
	h1.Done()

	h2 := ir.NewMethod(c, "onClickTwo", false, nil, "void")
	u2 := h2.ConstStr("https://s.example.com/two")
	h2.Invoke("t.sum.A.buildAndFetch", h2.This(), u2)
	h2.ReturnVoid()
	h2.Done()

	p.Manifest.EntryPoints = []ir.EntryPoint{
		{Method: "t.sum.A.onClickOne", Kind: ir.EventClick},
		{Method: "t.sum.A.onClickTwo", Kind: ir.EventClick},
	}
	return p
}

type sliceQuery struct {
	universe string // entry point restricting the universe; "" = unrestricted
	dp       StmtID
	reg      int
	forward  bool
}

func runQueries(t *testing.T, p *ir.Program, model *semmodel.Model,
	cg *callgraph.Graph, qs []sliceQuery, shared *SummaryCache) []*Result {

	t.Helper()
	var out []*Result
	for _, q := range qs {
		eng := NewEngine(p, model, cg)
		eng.MaxAsyncHops = 1
		if q.universe != "" {
			eng.Universe = cg.ReachableBits(q.universe)
		}
		if shared != nil {
			eng.Summaries = shared
		}
		if q.forward {
			out = append(out, eng.Forward(q.dp, q.reg))
		} else {
			out = append(out, eng.Backward(q.dp, q.reg))
		}
	}
	return out
}

// A shared summary cache must be transparent: replaying summaries built
// under one universe for engines running under another (or none) yields
// exactly the slices fresh engines compute, because universe gates are
// recorded in the summary and resolved at replay time.
func TestSharedSummaryCacheEquivalence(t *testing.T) {
	p := sharedHelperApp()
	model := semmodel.Default()
	cg := callgraph.Build(p, model)

	m := p.Method("t.sum.A.buildAndFetch")
	exec := findInvoke(m, execRef)
	dp := StmtID{Method: "t.sum.A.buildAndFetch", Index: exec}
	reqReg := m.Instrs[exec].Args[1]
	respReg := m.Instrs[exec].Dst

	qs := []sliceQuery{
		{universe: "t.sum.A.onClickOne", dp: dp, reg: reqReg},
		{universe: "t.sum.A.onClickTwo", dp: dp, reg: reqReg},
		{universe: "", dp: dp, reg: reqReg}, // pairing-style, unrestricted
		{universe: "t.sum.A.onClickOne", dp: dp, reg: respReg, forward: true},
		{universe: "t.sum.A.onClickTwo", dp: dp, reg: respReg, forward: true},
	}

	fresh := runQueries(t, p, model, cg, qs, nil)
	shared := NewSummaryCache()
	cached := runQueries(t, p, model, cg, qs, shared)

	for i := range qs {
		if !sameResult(fresh[i], cached[i]) {
			t.Errorf("query %d (%+v): shared-cache slice differs\nfresh:  %+v\ncached: %+v",
				i, qs[i], fresh[i], cached[i])
		}
	}
	// Contexts must actually differ (the gate is doing work): the two
	// backward slices include different click handlers.
	if fresh[0].Stmts().Equal(fresh[1].Stmts()) {
		t.Error("slices under different universes are identical; gating untested")
	}

	col := obs.NewCollector()
	shared.DrainCounters(col)
	prof := col.Snapshot()
	if prof.Counter(obs.CtrCacheSummaryMisses) == 0 {
		t.Error("no summary misses recorded")
	}
	if prof.Counter(obs.CtrCacheSummaryHits) == 0 {
		t.Error("no summary hits recorded: queries 2..5 should reuse query 1's summaries")
	}
}

// The engine's per-call private cache (installed by NewEngine) must also
// leave results identical across repeated queries on one engine.
func TestPrivateSummaryCacheRepeatedQueries(t *testing.T) {
	p := sharedHelperApp()
	model := semmodel.Default()
	cg := callgraph.Build(p, model)
	m := p.Method("t.sum.A.buildAndFetch")
	exec := findInvoke(m, execRef)
	dp := StmtID{Method: "t.sum.A.buildAndFetch", Index: exec}
	reg := m.Instrs[exec].Args[1]

	eng := NewEngine(p, model, cg)
	eng.Universe = cg.ReachableBits("t.sum.A.onClickOne")
	r1 := eng.Backward(dp, reg)
	r2 := eng.Backward(dp, reg)
	if !sameResult(r1, r2) {
		t.Error("repeated query on one engine differs")
	}
}

// Concurrent engines sharing one cache (the slice worker pool shape) must
// be race-free and produce the same slices as serial execution. Run under
// -race via ci.sh.
func TestSharedSummaryCacheConcurrent(t *testing.T) {
	t.Run("helper", func(t *testing.T) {
		p := sharedHelperApp()
		model := semmodel.Default()
		cg := callgraph.Build(p, model)
		m := p.Method("t.sum.A.buildAndFetch")
		exec := findInvoke(m, execRef)
		dp := StmtID{Method: "t.sum.A.buildAndFetch", Index: exec}
		reg := m.Instrs[exec].Args[1]

		want := runQueries(t, p, model, cg,
			[]sliceQuery{{universe: "t.sum.A.onClickOne", dp: dp, reg: reg}}, nil)[0]

		shared := NewSummaryCache()
		var wg sync.WaitGroup
		results := make([]*Result, 8)
		for w := range results {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				eng := NewEngine(p, model, cg)
				eng.MaxAsyncHops = 1
				eng.Universe = cg.ReachableBits("t.sum.A.onClickOne")
				eng.Summaries = shared
				results[w] = eng.Backward(dp, reg)
			}(w)
		}
		wg.Wait()
		for w, got := range results {
			if !sameResult(want, got) {
				t.Errorf("worker %d slice differs from serial", w)
			}
		}
	})
	t.Run("Pinterest", func(t *testing.T) {
		app, err := corpus.ByName("Pinterest")
		if err != nil {
			t.Fatal(err)
		}
		p, model := app.Prog, semmodel.Default()
		cg := callgraph.Build(p, model)
		qs := dpQueries(p, model, cg)
		if len(qs) < 50 {
			t.Fatalf("only %d queries; the fixture lost its coverage", len(qs))
		}
		run := func(q dpQuery, sums *SummaryCache) *Result {
			eng := NewEngine(p, model, cg)
			eng.Universe = q.universe
			eng.Summaries = sums
			switch {
			case q.seeds != nil:
				return eng.ForwardFacts(q.seeds)
			case q.forward:
				return eng.Forward(q.dp, q.reg)
			default:
				return eng.Backward(q.dp, q.reg)
			}
		}
		serial := NewSummaryCache()
		want := make([]*Result, len(qs))
		for i, q := range qs {
			want[i] = run(q, serial)
		}

		// Eight goroutines share one cache, each running every query in its
		// own order, so summaries are built, published and replayed
		// concurrently in as many interleavings as the scheduler finds.
		shared := NewSummaryCache()
		got := make([][]*Result, 8)
		var wg sync.WaitGroup
		for w := range got {
			got[w] = make([]*Result, len(qs))
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(qs)) {
					got[w][i] = run(qs[i], shared)
				}
			}(w)
		}
		wg.Wait()
		for w := range got {
			for i, q := range qs {
				if !sameResult(want[i], got[w][i]) || got[w][i].Truncated != nil {
					t.Fatalf("worker %d, %s: result differs from a serial run on a fresh cache", w, q.label)
				}
			}
		}
	})
}

// dpQuery is one fixpoint the slicer or the pairing flow check runs: a
// Backward from a demarcation point's request register, a Forward from its
// result register, or a ForwardFacts from the request slice's definitions.
type dpQuery struct {
	label    string
	universe *intern.Bits
	dp       StmtID
	reg      int
	forward  bool
	seeds    map[StmtID]int
}

// dpQueries lists, for every entry point of p and every demarcation-point
// invoke in its universe, the three fixpoints of one transaction. The
// ForwardFacts seeds come from a serial Backward on a private cache.
func dpQueries(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph) []dpQuery {
	var qs []dpQuery
	for _, ep := range p.Manifest.EntryPoints {
		universe := cg.ReachableBits(ep.Method)
		cg.Index().EachSorted(func(id uint32, m *ir.Method) bool {
			if !universe.Has(id) {
				return true
			}
			for i := range m.Instrs {
				in := &m.Instrs[i]
				mm := model.Lookup(in.Sym)
				if in.Op != ir.OpInvoke || mm == nil || !mm.DP || mm.ReqArg < 0 || mm.ReqArg >= len(in.Args) {
					continue
				}
				dp := StmtID{Method: m.Ref(), Index: i}
				label := fmt.Sprintf("%s -> %s@%d", ep.Method, dp.Method, dp.Index)
				qs = append(qs, dpQuery{label: label + " backward", universe: universe, dp: dp, reg: in.Args[mm.ReqArg]})
				if in.Dst != ir.NoReg {
					qs = append(qs, dpQuery{label: label + " forward", universe: universe, dp: dp, reg: in.Dst, forward: true})
				}
				eng := NewEngine(p, model, cg)
				eng.Universe = universe
				seeds := map[StmtID]int{}
				eng.Backward(dp, in.Args[mm.ReqArg]).EachStmt(func(m *ir.Method, i int) bool {
					if d := m.Instrs[i].Def(); d != ir.NoReg {
						seeds[StmtID{Method: m.Ref(), Index: i}] = d
					}
					return true
				})
				if len(seeds) > 0 {
					qs = append(qs, dpQuery{label: label + " forward-facts", seeds: seeds})
				}
			}
			return true
		})
	}
	return qs
}

// Once every summary a Backward needs is cached, replaying it allocates
// only the result (the Result and its statement words, plus the heap-read
// set's words) and the worklist (the worklist, its two seen-sets and the
// fact stack's growth): 9 allocations for this Pinterest query.
func TestBackwardReplayAllocs(t *testing.T) {
	app, err := corpus.ByName("Pinterest")
	if err != nil {
		t.Fatal(err)
	}
	p, model := app.Prog, semmodel.Default()
	cg := callgraph.Build(p, model)
	var q dpQuery
	for _, c := range dpQueries(p, model, cg) {
		if !c.forward && c.seeds == nil {
			q = c
			break
		}
	}
	eng := NewEngine(p, model, cg)
	eng.Universe = q.universe
	warm := eng.Backward(q.dp, q.reg)
	if warm.Size() < 10 {
		t.Fatalf("%s: slice of %d statements; pick a query with a real slice", q.label, warm.Size())
	}
	const want = 9
	allocs := testing.AllocsPerRun(20, func() { eng.Backward(q.dp, q.reg) })
	if allocs != want {
		t.Fatalf("%s: cached Backward replay allocated %.1f times, want %d", q.label, allocs, want)
	}
}

// A ForwardFacts seed may name a register its method does not declare.
// Such a fact has no effects: it must not borrow the next method's summary
// slot, nor index past the table when its method is the last one.
func TestSeedBeyondMethodRegisters(t *testing.T) {
	p := sharedHelperApp()
	model := semmodel.Default()
	cg := callgraph.Build(p, model)
	x := cg.Index()
	last := x.MethodAt(uint32(x.NumMethods() - 1))
	for _, m := range []*ir.Method{p.Method("t.sum.A.buildAndFetch"), last} {
		seed := StmtID{Method: m.Ref(), Index: 0}
		res := NewEngine(p, model, cg).ForwardFacts(map[StmtID]int{seed: m.Registers})
		if res.Size() != 1 || !res.Contains(seed.Method, 0) {
			t.Errorf("%s: seed r%d beyond its registers reached %d statements, want only the seed",
				m.Ref(), m.Registers, res.Size())
		}
	}
}
