package taint

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"extractocol/internal/budget"
	"extractocol/internal/callgraph"
	"extractocol/internal/corpus"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
)

// This file preserves the pre-interning taint replay: string-keyed worklist
// facts deduplicated through a map, string-form transfer summaries replayed
// directly, and a map-based result. The string-form summaries come from the
// same scans the dense path lowers (scanBackward/scanForward through the
// sumEmitter seam), so the replay is an independent re-execution of the
// propagation rules over different data structures. It is the reference
// implementation TestLegacyReplayMatchesDense holds the dense bitset engine
// to. The legacy result is converted into the dense Result at the end of
// each fixpoint, so results compare through one set of accessors.

// sumKey identifies one transfer-summary query.
type sumKey struct {
	method string
	reg    int
}

// sumInclude is one statement joining the slice, with its modeled
// source/sink tags resolved at build time so replay needs no instruction
// access.
type sumInclude struct {
	stmt   StmtID
	source string
	sink   string
}

// sumPush is one successor fact (hops are assigned at replay time).
type sumPush struct {
	heap   bool
	method string // local pushes: owning method
	reg    int    // local pushes: register
	loc    string // heap pushes: location id
}

// sumEntry is one ordered group of effects. gate == "" applies always;
// otherwise the group applies only when the gate method is in the universe
// or the fact has hops > 0.
type sumEntry struct {
	gate       string
	includes   []sumInclude
	heapReads  []string
	heapWrites []string
	pushes     []sumPush
}

// methodSummary is the full transfer summary of one (method, register)
// query in one direction.
type methodSummary struct {
	entries []sumEntry
}

// legacyCache memoizes string-form transfer summaries and the string-form
// heap access index. Like SummaryCache it is universe-independent, so one
// cache serves every engine over one (program, model, call graph) triple.
type legacyCache struct {
	bwd     map[sumKey]*methodSummary
	fwd     map[sumKey]*methodSummary
	writers map[string][]heapSite // heap location -> writing statements
	readers map[string][]heapSite // heap location -> reading statements
}

func newLegacyCache() *legacyCache {
	return &legacyCache{bwd: map[sumKey]*methodSummary{}, fwd: map[sumKey]*methodSummary{}}
}

// backward returns the backward transfer summary for (method, reg),
// building it with e on first use.
func (c *legacyCache) backward(e *Engine, method string, reg int) *methodSummary {
	k := sumKey{method, reg}
	if c.bwd[k] == nil {
		c.bwd[k] = e.buildBackward(method, reg)
	}
	return c.bwd[k]
}

// forward returns the forward transfer summary for (method, reg).
func (c *legacyCache) forward(e *Engine, method string, reg int) *methodSummary {
	k := sumKey{method, reg}
	if c.fwd[k] == nil {
		c.fwd[k] = e.buildForward(method, reg)
	}
	return c.fwd[k]
}

// heapWriters returns the statements writing loc, building the program-wide
// writer index on first use.
func (c *legacyCache) heapWriters(e *Engine, loc string) []heapSite {
	if c.writers == nil {
		c.writers = e.scanHeapSites(true)
	}
	return c.writers[loc]
}

// heapReaders returns the statements reading loc.
func (c *legacyCache) heapReaders(e *Engine, loc string) []heapSite {
	if c.readers == nil {
		c.readers = e.scanHeapSites(false)
	}
	return c.readers[loc]
}

// buildBackward derives the string-form backward summary of (method, reg)
// from the same scan the dense path lowers to compiled form.
func (e *Engine) buildBackward(method string, reg int) *methodSummary {
	b := &sumBuilder{e: e}
	if mid, ok := e.idx.MethodID(method); ok {
		e.scanBackward(b, mid, reg)
	}
	return b.done()
}

// buildForward derives the string-form forward summary of (method, reg).
func (e *Engine) buildForward(method string, reg int) *methodSummary {
	b := &sumBuilder{e: e}
	if mid, ok := e.idx.MethodID(method); ok {
		e.scanForward(b, mid, reg)
	}
	return b.done()
}

// sumBuilder accumulates string-form summary entries in emission order,
// resolving the scans' method IDs back to refs. Consecutive unconditional
// effects coalesce into one entry; a gated group flushes the pending
// unconditional entry first so replay order matches build order.
type sumBuilder struct {
	e      *Engine
	s      methodSummary
	cur    sumEntry // pending unconditional effects
	gat    sumEntry // open gated group (inGate)
	gate   string
	inGate bool
}

func (b *sumBuilder) flush() {
	if len(b.cur.includes) > 0 || len(b.cur.heapReads) > 0 ||
		len(b.cur.heapWrites) > 0 || len(b.cur.pushes) > 0 {
		b.s.entries = append(b.s.entries, b.cur)
		b.cur = sumEntry{}
	}
}

// entry returns the entry currently receiving effects.
func (b *sumBuilder) entry() *sumEntry {
	if b.inGate {
		return &b.gat
	}
	return &b.cur
}

// ref resolves a method ID of the engine's index back to its ref.
func (b *sumBuilder) ref(method uint32) string { return b.e.idx.MethodAt(method).Ref() }

func (b *sumBuilder) include(method uint32, idx int) {
	m := b.e.idx.MethodAt(method)
	inc := sumInclude{stmt: StmtID{m.Ref(), idx}}
	// Tags come from the model by symbol, not from the call graph's
	// per-statement table the dense builder reads.
	if in := &m.Instrs[idx]; in.Op == ir.OpInvoke {
		if mm := b.e.Model.Lookup(in.Sym); mm != nil {
			inc.source, inc.sink = mm.Source, mm.Sink
		}
	}
	en := b.entry()
	en.includes = append(en.includes, inc)
}

func (b *sumBuilder) heapRead(loc string) {
	en := b.entry()
	en.heapReads = append(en.heapReads, loc)
}

func (b *sumBuilder) heapWrite(loc string) {
	en := b.entry()
	en.heapWrites = append(en.heapWrites, loc)
}

func (b *sumBuilder) push(method uint32, reg int) {
	en := b.entry()
	en.pushes = append(en.pushes, sumPush{method: b.ref(method), reg: reg})
}

func (b *sumBuilder) pushHeap(loc string) {
	en := b.entry()
	en.pushes = append(en.pushes, sumPush{heap: true, loc: loc})
}

func (b *sumBuilder) begin(gate uint32) {
	b.flush()
	b.inGate = true
	b.gate = b.ref(gate)
	b.gat = sumEntry{}
}

func (b *sumBuilder) end() {
	b.inGate = false
	if len(b.gat.includes) > 0 || len(b.gat.heapReads) > 0 ||
		len(b.gat.heapWrites) > 0 || len(b.gat.pushes) > 0 {
		b.gat.gate = b.gate
		b.s.entries = append(b.s.entries, b.gat)
	}
	b.gat = sumEntry{}
}

func (b *sumBuilder) done() *methodSummary {
	b.flush()
	s := b.s
	return &s
}

// legacyEngine runs the legacy replay under an Engine's configuration
// (universe, hop bound, budget, stats), with string-form summaries from its
// own cache.
type legacyEngine struct {
	*Engine
	sums *legacyCache
}

// inUniverse is universeHas by method ref, for the string-form gate checks.
func (e *legacyEngine) inUniverse(method string) bool {
	if e.Universe == nil {
		return true
	}
	id, ok := e.idx.MethodID(method)
	return ok && e.Universe.Has(id)
}

// legacyResult is the map-based slice representation the dense Result
// replaced.
type legacyResult struct {
	Stmts      map[StmtID]bool
	HeapReads  map[string]bool
	HeapWrites map[string]bool
	Sinks      map[string]bool
	Sources    map[string]bool
	Truncated  *budget.Exceeded
}

func newLegacyResult() *legacyResult {
	return &legacyResult{
		Stmts:      map[StmtID]bool{},
		HeapReads:  map[string]bool{},
		HeapWrites: map[string]bool{},
		Sinks:      map[string]bool{},
		Sources:    map[string]bool{},
	}
}

// convertLegacy re-expresses the legacy maps as a dense Result. Statements
// whose method is unknown to the index cannot occur for real programs
// (every summary statement comes from an indexed method) and are dropped.
func (e *legacyEngine) convertLegacy(lr *legacyResult) *Result {
	res := e.newResult()
	for s := range lr.Stmts {
		res.AddStmt(s.Method, s.Index)
	}
	for l := range lr.HeapReads {
		res.heapReads.Add(res.tab.Intern(l))
	}
	for l := range lr.HeapWrites {
		res.heapWrites.Add(res.tab.Intern(l))
	}
	for s := range lr.Sinks {
		res.sinks.Add(res.tab.Intern(s))
	}
	for s := range lr.Sources {
		res.sources.Add(res.tab.Intern(s))
	}
	res.Truncated = lr.Truncated
	return res
}

type fact struct {
	kind   factKind
	method string // local facts: owning method
	reg    int    // local facts: register
	loc    string // heap facts: location id
	hops   int    // async hops consumed so far
}

type worklist struct {
	items []fact
	seen  map[fact]bool
}

func (w *worklist) push(f fact) {
	// Deduplicate ignoring hops: keep the lowest-hop visit.
	key := f
	key.hops = 0
	if w.seen[key] {
		return
	}
	w.seen[key] = true
	w.items = append(w.items, f)
}

func (w *worklist) pop() (fact, bool) {
	if len(w.items) == 0 {
		return fact{}, false
	}
	f := w.items[len(w.items)-1]
	w.items = w.items[:len(w.items)-1]
	return f, true
}

// Backward is Engine.Backward on the legacy replay.
func (e *legacyEngine) Backward(dp StmtID, reg int) *Result {
	e.ensure()
	res := newLegacyResult()
	w := &worklist{seen: map[fact]bool{}}
	res.Stmts[dp] = true
	w.push(fact{kind: factLocal, method: dp.Method, reg: reg})
	e.legacyRun(w, res, dirBackward, dp.Method)
	return e.convertLegacy(res)
}

// Forward is Engine.Forward on the legacy replay.
func (e *legacyEngine) Forward(origin StmtID, reg int) *Result {
	e.ensure()
	res := newLegacyResult()
	w := &worklist{seen: map[fact]bool{}}
	res.Stmts[origin] = true
	w.push(fact{kind: factLocal, method: origin.Method, reg: reg})
	e.legacyRun(w, res, dirForward, origin.Method)
	return e.convertLegacy(res)
}

// sortedSeeds returns the seed statements in (method, index) order, so
// worklist seeding never depends on map iteration order.
func sortedSeeds(seeds map[StmtID]int) []StmtID {
	out := make([]StmtID, 0, len(seeds))
	for s := range seeds {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Method != out[j].Method {
			return out[i].Method < out[j].Method
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// ForwardFacts is Engine.ForwardFacts on the legacy replay. Seeds are pushed
// in sorted (method, index) order — the same order the dense path uses — so
// worklist processing order never depends on map iteration.
func (e *legacyEngine) ForwardFacts(seeds map[StmtID]int) *Result {
	e.ensure()
	res := newLegacyResult()
	w := &worklist{seen: map[fact]bool{}}
	site := "flow-check"
	for _, s := range sortedSeeds(seeds) {
		res.Stmts[s] = true
		w.push(fact{kind: factLocal, method: s.Method, reg: seeds[s]})
		if site == "flow-check" || s.Method < site {
			site = s.Method
		}
	}
	e.legacyRun(w, res, dirForward, site)
	return e.convertLegacy(res)
}

// legacyRun drains the worklist, replaying the memoized string-form transfer
// summary (or heap access index) for each popped fact — the pre-interning
// run loop.
func (e *legacyEngine) legacyRun(w *worklist, res *legacyResult, dir direction, site string) {
	cat := obs.CatTaintBackward
	if dir == dirForward {
		cat = obs.CatTaintForward
	}
	sp := e.Stats.Span(cat, site)
	defer sp.End()
	ck := e.Budget.Checker(e.budgetPhase(), site)
	e.Budget.MaybePanic(budget.PhaseTaint, site)
	if e.Budget.Hang(budget.PhaseTaint, site) {
		// Injected divergence: spin through the checker so the hang is
		// observable yet stoppable by any armed deadline or step budget.
		for {
			if err := ck.Step(); err != nil {
				res.Truncated = ck.Exceeded()
				return
			}
		}
	}
	for {
		if err := ck.Step(); err != nil {
			res.Truncated = ck.Exceeded()
			return
		}
		f, ok := w.pop()
		if !ok {
			break
		}
		e.Stats.Add(obs.CtrTaintFacts, 1)
		switch f.kind {
		case factLocal:
			var s *methodSummary
			if dir == dirBackward {
				s = e.sums.backward(e.Engine, f.method, f.reg)
			} else {
				s = e.sums.forward(e.Engine, f.method, f.reg)
			}
			e.applySummary(s, f, res, w)
		case factHeap:
			var sites []heapSite
			if dir == dirBackward {
				sites = e.sums.heapWriters(e.Engine, f.loc)
			} else {
				sites = e.sums.heapReaders(e.Engine, f.loc)
			}
			e.applyHeapSites(sites, f, res, w)
		}
	}
}

// applyInclude replays one include effect on the legacy result.
func (e *legacyEngine) applyInclude(inc sumInclude, res *legacyResult) {
	e.Stats.Add(obs.CtrTaintStmts, 1)
	res.Stmts[inc.stmt] = true
	if inc.source != "" {
		res.Sources[inc.source] = true
	}
	if inc.sink != "" {
		res.Sinks[inc.sink] = true
	}
}

// applySummary replays a transfer summary for fact f: gated groups apply
// when the gate method is inside the universe or the fact already escaped
// it; pushed facts inherit f's hop count.
func (e *legacyEngine) applySummary(s *methodSummary, f fact, res *legacyResult, w *worklist) {
	for i := range s.entries {
		en := &s.entries[i]
		if en.gate != "" && f.hops == 0 && !e.inUniverse(en.gate) {
			continue
		}
		for _, inc := range en.includes {
			e.applyInclude(inc, res)
		}
		for _, loc := range en.heapReads {
			res.HeapReads[loc] = true
		}
		for _, loc := range en.heapWrites {
			res.HeapWrites[loc] = true
		}
		for _, p := range en.pushes {
			if p.heap {
				w.push(fact{kind: factHeap, loc: p.loc, hops: f.hops})
			} else {
				w.push(fact{kind: factLocal, method: p.method, reg: p.reg, hops: f.hops})
			}
		}
	}
}

// applyHeapSites replays heap-index entries for a heap fact: sites outside
// the universe cost one async hop, bounded by MaxAsyncHops.
func (e *legacyEngine) applyHeapSites(sites []heapSite, f fact, res *legacyResult, w *worklist) {
	for _, site := range sites {
		method := e.idx.MethodAt(site.method).Ref()
		hops := f.hops
		if !e.inUniverse(method) {
			hops = f.hops + 1
			if hops > e.MaxAsyncHops {
				continue
			}
		}
		e.Stats.Add(obs.CtrTaintStmts, 1)
		res.Stmts[StmtID{method, site.index}] = true
		w.push(fact{kind: factLocal, method: method, reg: site.reg, hops: hops})
	}
}

// requireSameResult fails unless the dense and legacy results agree on all
// five sets and on where (and whether) a budget truncated them.
func requireSameResult(t *testing.T, label string, dense, legacy *Result) {
	t.Helper()
	if !sameResult(dense, legacy) || !reflect.DeepEqual(dense.Truncated, legacy.Truncated) {
		t.Fatalf("%s: dense and legacy replay diverge\n dense: %d stmts %v %v %v %v truncated=%v\nlegacy: %d stmts %v %v %v %v truncated=%v",
			label,
			dense.Size(), dense.HeapReads(), dense.HeapWrites(), dense.Sinks(), dense.Sources(), dense.Truncated,
			legacy.Size(), legacy.HeapReads(), legacy.HeapWrites(), legacy.Sinks(), legacy.Sources(), legacy.Truncated)
	}
}

// TestLegacyReplayMatchesDense holds the dense bitset engine to the
// pre-interning replay over every Table 1 app and a seeded generated
// corpus: for every entry-point universe, every demarcation-point invoke
// in it and both async-hop settings, Backward on the request register,
// Forward on the DP's result register and ForwardFacts on the request
// slice's definitions (the pairing flow-check shape) must agree exactly.
func TestLegacyReplayMatchesDense(t *testing.T) {
	t.Run("seed-order", legacySeedOrderDeterministic)
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	model := semmodel.Default()
	apps := append(corpus.Apps(), corpus.Rand(1729, 100)...)
	queries := 0
	for _, app := range apps {
		p := app.Prog
		cg := callgraph.Build(p, model)
		// One cache of each kind per program, shared across universes and
		// hop settings — the sharing production uses.
		denseSums, legacySums := NewSummaryCache(), newLegacyCache()
		for _, ep := range p.Manifest.EntryPoints {
			universe := cg.ReachableBits(ep.Method)
			cg.Index().EachSorted(func(id uint32, m *ir.Method) bool {
				if !universe.Has(id) {
					return true
				}
				for i := range m.Instrs {
					in := &m.Instrs[i]
					mm := model.Lookup(in.Sym)
					if in.Op != ir.OpInvoke || mm == nil || !mm.DP {
						continue
					}
					if mm.ReqArg < 0 || mm.ReqArg >= len(in.Args) {
						continue
					}
					dp, reqReg := StmtID{Method: m.Ref(), Index: i}, in.Args[mm.ReqArg]
					for hops := 0; hops <= 1; hops++ {
						dense := NewEngine(p, model, cg)
						dense.MaxAsyncHops = hops
						dense.Universe = universe
						dense.Summaries = denseSums
						legacy := &legacyEngine{Engine: NewEngine(p, model, cg), sums: legacySums}
						legacy.MaxAsyncHops = hops
						legacy.Universe = universe
						label := fmt.Sprintf("%s: %s -> %s@%d hops=%d", app.Spec.Name, ep.Method, dp.Method, dp.Index, hops)

						req := dense.Backward(dp, reqReg)
						requireSameResult(t, label+" backward", req, legacy.Backward(dp, reqReg))
						queries++
						if in.Dst != ir.NoReg {
							requireSameResult(t, label+" forward", dense.Forward(dp, in.Dst), legacy.Forward(dp, in.Dst))
							queries++
						}
						seeds := map[StmtID]int{}
						req.idx.EachStmt(&req.stmts, func(m *ir.Method, _ uint32, i int) bool {
							if d := m.Instrs[i].Def(); d != ir.NoReg {
								seeds[StmtID{Method: m.Ref(), Index: i}] = d
							}
							return true
						})
						if len(seeds) > 0 {
							requireSameResult(t, label+" forward-facts", dense.ForwardFacts(seeds), legacy.ForwardFacts(seeds))
							queries++
						}
					}
				}
				return true
			})
		}
	}
	if queries < 1000 {
		t.Fatalf("only %d queries compared; the sweep lost its coverage", queries)
	}
	t.Logf("%d queries over %d apps agree", queries, len(apps))
}

// legacySeedOrderDeterministic is the reference replay's half of the root
// TestForwardFactsSeedOrderDeterministic: with a wide seed map and a
// fixpoint budget tight enough to truncate, the legacy replay must cut
// propagation off at the same frontier on every run — and at the same
// frontier as the dense engine.
func legacySeedOrderDeterministic(t *testing.T) {
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	model := semmodel.Default()
	cg := callgraph.Build(app.Prog, model)

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

	run := func(legacy bool, iters int64) *Result {
		eng := NewEngine(app.Prog, model, cg)
		eng.Budget = budget.New(budget.Limits{FixpointIters: iters})
		if legacy {
			return (&legacyEngine{Engine: eng, sums: newLegacyCache()}).ForwardFacts(seeds)
		}
		return eng.ForwardFacts(seeds)
	}
	project := func(r *Result) string {
		var sb strings.Builder
		r.idx.EachStmt(&r.stmts, func(m *ir.Method, _ uint32, idx int) bool {
			fmt.Fprintf(&sb, "%s#%d\n", m.Ref(), idx)
			return true
		})
		return sb.String()
	}

	first := run(true, 40)
	if first.Truncated == nil {
		t.Fatal("FixpointIters=40 did not truncate; ordering is not observable")
	}
	want := project(first)
	for i := 1; i < 8; i++ {
		if got := project(run(true, 40)); got != want {
			t.Fatalf("truncated legacy result diverged on run %d\n--- first ---\n%s\n--- run %d ---\n%s",
				i, want, i, got)
		}
	}
	requireSameResult(t, "truncated", run(false, 40), first)
	full := run(true, 0)
	if full.Size() == 0 {
		t.Fatal("empty unbudgeted legacy result")
	}
	requireSameResult(t, "unbudgeted", run(false, 0), full)
}
