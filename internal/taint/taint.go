// Package taint implements the bi-directional static taint propagation at
// the heart of Extractocol (§3.1). Starting from demarcation points, the
// engine tracks every operation on network-I/O-bound objects:
//
//   - backward propagation collects the statements that construct a request
//     (URI, method, headers, body) — inverted propagation rules over the
//     reversed control flow, with taint killed at definitions;
//   - forward propagation collects the statements that process a response;
//   - heap facts (instance fields, static fields, SQLite rows, Android
//     resources) bridge asynchronous events: a request fragment built in a
//     location callback and consumed by a click handler is connected by
//     backward-propagating from the setter statements (§3.4). The number of
//     asynchronous hops crossed is bounded by MaxAsyncHops, reproducing the
//     paper's single-hop limitation.
//
// Unlike classic taint analysis, which only decides reachability from
// source to sink, this engine records *all* statements touching tainted
// objects — omitting even one would corrupt the reconstructed signature.
//
// The hot path works entirely on dense IDs: methods, statements and
// register slots are addressed through the program's ir.Index, call edges
// and semantic-model entries through the call graph's ID-indexed tables,
// heap locations and source/sink tags through an interned symbol table
// shared via the SummaryCache, and every set (slice statements, worklist
// dedup, universe) is an intern.Bits bitset. Strings only appear at the
// boundaries: heap location names during summary construction (cold,
// memoized), the StmtID seeds callers pass in, and the Result accessors
// consumed by the report layer. The pre-interning string/map replay lives
// on in the package tests as the reference implementation the dense path is
// checked against.
package taint

import (
	"sort"

	"extractocol/internal/budget"
	"extractocol/internal/callgraph"
	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
)

// StmtID identifies one instruction in the program.
type StmtID struct {
	Method string
	Index  int
}

// Result is a program slice: the statement set plus the heap locations and
// data endpoints touched while tainted. Statements are a dense bitset over
// the program index; heap locations and source/sink tags are interned
// through the shared symbol table. Accessors resolve back to strings at the
// report boundary.
type Result struct {
	idx *ir.Index
	tab *intern.SyncTable

	// The five sets are embedded by value — a result is one allocation
	// (plus lazy bitset words) on a path that creates two per transaction.
	stmts      intern.Bits // dense statement IDs (ir.Index space)
	heapReads  intern.Bits // interned heap location IDs
	heapWrites intern.Bits
	sinks      intern.Bits // interned sink tags
	sources    intern.Bits // interned source tags

	// Truncated is non-nil when a budget limit stopped propagation before
	// the fixpoint completed: the slice is partial and must not feed
	// signature construction.
	Truncated *budget.Exceeded
}

// NewResult returns an empty slice over the given program index and symbol
// table. idx may be nil only for results that never hold statements.
func NewResult(idx *ir.Index, tab *intern.SyncTable) *Result {
	r := &Result{idx: idx, tab: tab}
	if idx != nil {
		r.stmts = *intern.NewBits(idx.NumStmts())
	}
	if tab == nil {
		r.tab = &intern.SyncTable{}
	}
	return r
}

// Index returns the program index the statement set is addressed through.
func (r *Result) Index() *ir.Index { return r.idx }

// Stmts returns the live dense statement set. It iterates in program order;
// mutations (slice augmentation) write straight into the slice.
func (r *Result) Stmts() *intern.Bits { return &r.stmts }

// AddStmt adds one statement by (method ref, instruction index), reporting
// whether it was newly added. Unknown methods and out-of-range indexes are
// ignored — a dense ID must never alias into a neighboring method's range.
func (r *Result) AddStmt(method string, index int) bool {
	mid, ok := r.idx.MethodID(method)
	if !ok || index < 0 || index >= len(r.idx.MethodAt(mid).Instrs) {
		return false
	}
	return r.stmts.Add(r.idx.StmtID(mid, index))
}

// Size returns the number of statements in the slice.
func (r *Result) Size() int { return r.stmts.Count() }

// Methods returns the sorted set of methods contributing statements.
func (r *Result) Methods() []string {
	var out []string
	last := uint32(intern.None)
	r.idx.EachStmt(&r.stmts, func(m *ir.Method, id uint32, _ int) bool {
		// Iteration is grouped by method, so a change of method ID marks a
		// new distinct method.
		if id != last {
			out = append(out, m.Ref())
			last = id
		}
		return true
	})
	sort.Strings(out)
	return out
}

// HeapReads returns the sorted heap locations read by the slice.
func (r *Result) HeapReads() []string { return intern.SortedStrings(&r.heapReads, r.tab) }

// HeapWrites returns the sorted heap locations written by the slice.
func (r *Result) HeapWrites() []string { return intern.SortedStrings(&r.heapWrites, r.tab) }

// Sinks returns the sorted data consumption endpoints reached.
func (r *Result) Sinks() []string { return intern.SortedStrings(&r.sinks, r.tab) }

// Sources returns the sorted data origins observed.
func (r *Result) Sources() []string { return intern.SortedStrings(&r.sources, r.tab) }

// Clone returns an independent copy sharing the (immutable) index and
// symbol table.
func (r *Result) Clone() *Result {
	return &Result{
		idx:        r.idx,
		tab:        r.tab,
		stmts:      *r.stmts.Clone(),
		heapReads:  *r.heapReads.Clone(),
		heapWrites: *r.heapWrites.Clone(),
		sinks:      *r.sinks.Clone(),
		sources:    *r.sources.Clone(),
		Truncated:  r.Truncated,
	}
}

// Engine performs taint propagation over one program.
type Engine struct {
	Prog  *ir.Program
	Model *semmodel.Model
	// CG is the program's call graph. Its edges, semantic-model table and
	// register types drive summary construction, so it must be built over
	// Prog with Model; a nil CG is built on first use.
	CG *callgraph.Graph

	// MaxAsyncHops bounds how many asynchronous event boundaries a heap
	// fact may cross: 0 disables the §3.4 heuristic (the paper's setting
	// for open-source apps), 1 is the paper's closed-source setting.
	MaxAsyncHops int

	// Universe, when non-nil, restricts propagation to the given methods
	// (dense method IDs in the program index — callgraph.ReachableBits
	// builds the per-entry-point set). Heap facts may escape the universe
	// at the cost of one async hop.
	Universe *intern.Bits

	// Stats receives workload counters (facts processed, statements
	// included). The shard is unsynchronized: it must be owned by the
	// engine's goroutine. Nil disables counting.
	Stats *obs.Shard

	// Summaries memoizes per-(method, register) transfer summaries and the
	// program-wide heap access index (see summary.go), and owns the shared
	// symbol table heap locations and tags are interned through. NewEngine
	// installs a private cache; callers analyzing many slices over one
	// program should install a shared one so later slices reuse earlier
	// traversals.
	Summaries *SummaryCache

	// Budget, when non-nil, bounds every fixpoint this engine runs: the
	// worklist polls it at the loop head and stops with Result.Truncated
	// set once a limit trips. Nil means unlimited.
	Budget *budget.Budget
	// BudgetPhase labels budget errors from this engine's fixpoints
	// ("slice" draws from the shared slice-step pool, "pairing" does not);
	// empty defaults to "taint".
	BudgetPhase string

	// idx is the dense program index, resolved once per engine from the
	// call graph.
	idx *ir.Index

	// scratch is the reusable summary lowering buffer (see denseBuilder).
	// Engines are single-goroutine, so one scratch per engine suffices.
	scratch *denseBuilder

	// Workload tallies of the running fixpoint (facts processed, statements
	// included, summary cache hits), added to Stats and the cache's
	// counters once per run instead of once per step.
	nFacts, nStmts, nHits int64
}

// NewEngine creates an engine with the given configuration. The summary
// cache is created lazily on first use unless the caller installs one.
func NewEngine(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph) *Engine {
	return &Engine{Prog: p, Model: model, CG: cg, MaxAsyncHops: 1}
}

// ensure resolves the engine's call graph, dense index and summary cache
// before a fixpoint runs. The index is shared through the call graph (built
// once in callgraph.Build).
func (e *Engine) ensure() {
	if e.CG == nil {
		e.CG = callgraph.Build(e.Prog, e.Model)
	}
	if e.Summaries == nil {
		e.Summaries = NewSummaryCache()
	}
	e.idx = e.CG.Index()
	e.Summaries.bind(e.idx)
}

// newResult allocates an empty result bound to this engine's index and the
// summary cache's symbol table.
func (e *Engine) newResult() *Result {
	e.ensure()
	return NewResult(e.idx, e.Summaries.tab)
}

// universeHas is the dense universe check: a nil universe admits everything.
func (e *Engine) universeHas(id uint32) bool {
	return e.Universe == nil || e.Universe.Has(id)
}

// direction selects which transfer summaries a worklist run consults.
type direction uint8

const (
	dirBackward direction = iota
	dirForward
)

// budgetPhase is the phase label for this engine's budget accounting.
func (e *Engine) budgetPhase() string {
	if e.BudgetPhase != "" {
		return e.BudgetPhase
	}
	return budget.PhaseTaint
}

type factKind uint8

const (
	factLocal factKind = iota
	factHeap
)

// cFact is a dense worklist fact: a (method ID, register) local fact or an
// interned heap location, plus the async hops consumed so far.
type cFact struct {
	kind   factKind
	method uint32 // local facts: dense method ID
	reg    int32  // local facts: register
	loc    uint32 // heap facts: interned location ID
	hops   int32
}

// denseWorklist deduplicates facts through two bitsets — register slots for
// local facts, interned location IDs for heap facts. Dedup ignores hops (the
// first visit, which the LIFO order makes the lowest-hop one, wins).
type denseWorklist struct {
	items     []cFact
	seenLocal *intern.Bits // ir.Index register-slot space
	seenHeap  *intern.Bits // interned heap location space
}

func newDenseWorklist(idx *ir.Index) *denseWorklist {
	return &denseWorklist{
		seenLocal: intern.NewBits(idx.NumRegSlots()),
		seenHeap:  &intern.Bits{},
	}
}

func (w *denseWorklist) pushLocal(idx *ir.Index, method uint32, reg int32, hops int32) {
	if reg < 0 {
		return // NoReg never reaches a push site; guard the slot arithmetic
	}
	if !w.seenLocal.Add(idx.RegSlot(method, int(reg))) {
		return
	}
	w.items = append(w.items, cFact{kind: factLocal, method: method, reg: reg, hops: hops})
}

func (w *denseWorklist) pushHeap(loc uint32, hops int32) {
	if !w.seenHeap.Add(loc) {
		return
	}
	w.items = append(w.items, cFact{kind: factHeap, loc: loc, hops: hops})
}

func (w *denseWorklist) pop() (cFact, bool) {
	if len(w.items) == 0 {
		return cFact{}, false
	}
	f := w.items[len(w.items)-1]
	w.items = w.items[:len(w.items)-1]
	return f, true
}

// run drains the worklist, replaying the compiled transfer summary (or heap
// access index) for each popped fact. site names the fixpoint (the slicing
// origin's method) for budget errors and fault probes. When a budget limit
// trips mid-run the partial result is marked Truncated and returned as-is.
func (e *Engine) run(w *denseWorklist, res *Result, dir direction, site string) {
	defer e.flushTallies()
	// One span per fixpoint run, nested inside the job span on this
	// engine's shard. Free when tracing is off.
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
		e.nFacts++
		switch f.kind {
		case factLocal:
			e.applyCompiled(e.compiled(dir, f.method, f.reg), f, res, w)
		case factHeap:
			e.applyHeapSitesDense(e.heapSites(dir, f.loc), f, res, w)
		}
	}
}

// flushTallies adds the finished fixpoint's tallies to Stats and the
// summary cache's hit counter.
func (e *Engine) flushTallies() {
	// A counter nothing touched stays absent from the shard, as it did when
	// every step added 1.
	if e.nFacts > 0 {
		e.Stats.Add(obs.CtrTaintFacts, e.nFacts)
	}
	if e.nStmts > 0 {
		e.Stats.Add(obs.CtrTaintStmts, e.nStmts)
	}
	e.Summaries.hits.Add(e.nHits)
	e.nFacts, e.nStmts, e.nHits = 0, 0, 0
}

// applyCompiledInclude replays one compiled include effect.
func (e *Engine) applyCompiledInclude(inc cInclude, res *Result) {
	e.nStmts++
	res.stmts.Add(inc.stmt)
	if inc.source != intern.None {
		res.sources.Add(inc.source)
	}
	if inc.sink != intern.None {
		res.sinks.Add(inc.sink)
	}
}

// applyCompiled replays a compiled transfer summary for fact f: gated
// groups apply when the gate method is inside the universe or the fact
// already escaped it; pushed facts inherit f's hop count.
func (e *Engine) applyCompiled(s *cSummary, f cFact, res *Result, w *denseWorklist) {
	var inc, rd, wr, pu uint32 // the current entry's start offsets
	for _, en := range s.entries {
		if en.gate == intern.None || f.hops > 0 || e.universeHas(en.gate) {
			for _, x := range s.includes[inc:en.incEnd] {
				e.applyCompiledInclude(x, res)
			}
			for _, loc := range s.reads[rd:en.readEnd] {
				res.heapReads.Add(loc)
			}
			for _, loc := range s.writes[wr:en.writeEnd] {
				res.heapWrites.Add(loc)
			}
			for _, p := range s.pushes[pu:en.pushEnd] {
				if p.heap {
					w.pushHeap(p.loc, f.hops)
				} else {
					w.pushLocal(e.idx, p.method, p.reg, f.hops)
				}
			}
		}
		inc, rd, wr, pu = en.incEnd, en.readEnd, en.writeEnd, en.pushEnd
	}
}

// applyHeapSitesDense replays heap-index entries for a heap fact: sites
// outside the universe cost one async hop, bounded by MaxAsyncHops.
func (e *Engine) applyHeapSitesDense(sites []cHeapSite, f cFact, res *Result, w *denseWorklist) {
	for _, site := range sites {
		hops := f.hops
		if !e.universeHas(site.method) {
			hops = f.hops + 1
			if int(hops) > e.MaxAsyncHops {
				continue
			}
		}
		e.nStmts++
		res.stmts.Add(site.stmt)
		w.pushLocal(e.idx, site.method, site.reg, hops)
	}
}

// heapLoc computes the heap location id for a field access in method mid:
// the inferred class of the base object joined with the field name.
func (e *Engine) heapLoc(mid uint32, m *ir.Method, in *ir.Instr) string {
	types := e.CG.TypesOf(mid)
	base := m.Class.Name
	if in.A >= 0 && in.A < len(types) && types[in.A] != "" {
		base = types[in.A]
	}
	return "f:" + base + "." + in.Sym
}

// modelAt returns the semantic-model entry of the invoke at instruction idx
// of method mid (nil when it is not a modeled invoke).
func (e *Engine) modelAt(mid uint32, idx int) *semmodel.Method {
	return e.CG.ModelAt(e.idx.StmtID(mid, idx))
}

// constString resolves the constant string feeding register reg at
// instruction site of method mid, by scanning backward for its most recent
// definition. It follows one move and resolves APK resources. ok is false
// when the value is not a compile-time constant.
func (e *Engine) constString(mid uint32, m *ir.Method, site, reg int) (string, bool) {
	for i := site - 1; i >= 0; i-- {
		in := &m.Instrs[i]
		if in.Def() != reg {
			continue
		}
		switch in.Op {
		case ir.OpConstStr:
			return in.Str, true
		case ir.OpMove:
			return e.constString(mid, m, i, in.A)
		case ir.OpInvoke:
			if mm := e.modelAt(mid, i); mm != nil && mm.Kind == semmodel.KResGetString && len(in.Args) >= 2 {
				if key, ok := e.constString(mid, m, i, in.Args[1]); ok {
					if v, present := e.Prog.Resources[key]; present {
						return v, true
					}
					return "", false
				}
			}
			return "", false
		default:
			return "", false
		}
	}
	return "", false
}

// dbLocs derives SQLite heap locations for the DB call in at instruction
// site of method mid, whose model entry is mm: one per constant column name
// put into the ContentValues argument (writes) or per constant column
// argument (reads).
func (e *Engine) dbLocs(mid uint32, m *ir.Method, site int, in *ir.Instr, mm *semmodel.Method) []string {
	if len(in.Args) < 2 {
		return nil
	}
	table, ok := e.constString(mid, m, site, in.Args[1])
	if !ok {
		table = "*"
	}
	switch mm.Kind {
	case semmodel.KDBQuery:
		if len(in.Args) >= 3 {
			if col, ok := e.constString(mid, m, site, in.Args[2]); ok {
				return []string{"db:" + table + "." + col}
			}
		}
		return []string{"db:" + table + ".*"}
	case semmodel.KDBInsert, semmodel.KDBUpdate:
		if len(in.Args) < 3 {
			return nil
		}
		valuesReg := in.Args[2]
		var locs []string
		for i := 0; i < site; i++ {
			put := &m.Instrs[i]
			if put.Op != ir.OpInvoke || len(put.Args) < 3 || put.Args[0] != valuesReg {
				continue
			}
			pm := e.modelAt(mid, i)
			if pm == nil || pm.Kind != semmodel.KCVPut {
				continue
			}
			if col, ok := e.constString(mid, m, i, put.Args[1]); ok {
				locs = append(locs, "db:"+table+"."+col)
			}
		}
		if len(locs) == 0 {
			locs = []string{"db:" + table + ".*"}
		}
		return locs
	}
	return nil
}

// paramReg maps a parameter position (receiver = 0 for instance methods,
// then declared parameters) to a register of m, or NoReg.
func paramReg(m *ir.Method, pos int) int {
	if pos < 0 || pos >= m.NumParamRegs() {
		return ir.NoReg
	}
	return pos
}
