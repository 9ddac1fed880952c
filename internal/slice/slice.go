// Package slice enumerates HTTP transactions and extracts their program
// slices (§3.1). For every demarcation point reachable from a non-intent
// entry point it creates a transaction context, computes the backward
// (request) and forward (response) slices with the taint engine, and
// performs object-aware slice augmentation so each slice is self-contained
// for signature building.
//
// Transactions are separated per (entry point, demarcation-point site):
// this is the disjoint-sub-slice preprocessing of §3.3 — when multiple
// requests share a demarcation point through code reuse, their slices are
// distinguished by the disjoint code segments belonging to each context,
// restoring one-to-one request/response pairing.
package slice

import (
	"fmt"
	"sync"
	"time"

	"extractocol/internal/budget"
	"extractocol/internal/callgraph"
	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
	"extractocol/internal/taint"
)

// Transaction is one HTTP interaction context: a demarcation point reached
// from a specific entry point, with its request and response slices.
type Transaction struct {
	ID    int
	DP    taint.StmtID  // demarcation point statement
	DPRef string        // modeled method reference of the DP
	Entry ir.EntryPoint // triggering entry point (the transaction context)

	ReqReg   int           // register holding the request object at the DP
	Request  *taint.Result // backward slice
	Response *taint.Result // forward slice, nil when the DP has no response flow

	RespRoot    taint.StmtID // statement where response propagation begins
	RespRootReg int
	// RespConsumed reports whether forward propagation found any statement
	// beyond the demarcation point itself, before augmentation inflated the
	// slice with initialization context.
	RespConsumed bool

	// Sink set for "how is the response consumed" (§2): media, file, ui.
	Sinks map[string]bool
	// Sources observed while constructing the request (microphone, ...).
	Sources map[string]bool

	// ReqStmtsSliced / RespStmtsSliced are the slice sizes as taint
	// propagation produced them, before object-aware augmentation inflated
	// them with initialization context — provenance for the explain layer
	// (how much of each slice is propagation versus augmentation).
	ReqStmtsSliced  int
	RespStmtsSliced int
}

// Key returns a stable identity for deduplication across entry points.
func (t *Transaction) Key() string {
	return fmt.Sprintf("%s@%d/%s", t.DP.Method, t.DP.Index, t.Entry.Method)
}

// Options configures transaction extraction.
type Options struct {
	// MaxAsyncHops bounds asynchronous-boundary crossings (§3.4):
	// 0 disables the heuristic, 1 is the paper's default for
	// closed-source apps.
	MaxAsyncHops int
	// IncludeIntents treats intent-triggered entry points as analysis
	// roots. The paper's system does not model intents (§4) — this is the
	// extension it proposes ("intents can be handled by modeling the
	// implicit control flow"), off by default.
	IncludeIntents bool
	// Col, when non-nil, receives the extraction counters, the per-job
	// latency histogram and, with a tracer or flight recorder armed, one
	// span per job.
	Col *obs.Collector
	// Summaries, when non-nil, is a shared taint transfer-summary cache
	// (see taint.SummaryCache); nil uses a cache private to this call.
	Summaries *taint.SummaryCache
	// Budget, when non-nil, bounds extraction: jobs check it at their
	// boundaries, taint fixpoints at their loop heads, and exhausted or
	// panicking jobs degrade into diagnostics instead of crashing. Jobs run
	// in order, so a step budget completes a deterministic prefix of the
	// unbudgeted run's transactions.
	Budget *budget.Budget
}

// sliceJob is one (entry point, demarcation-point site) extraction unit.
type sliceJob struct {
	ep       ir.EntryPoint
	universe *intern.Bits // dense method IDs reachable from ep
	m        *ir.Method
	site     int
	in       *ir.Instr
	mm       *semmodel.Method
}

// id names the job for diagnostics and fault probes: which entry point was
// slicing toward which demarcation point when the job degraded.
func (j sliceJob) id() string {
	return fmt.Sprintf("%s -> %s@%d", j.ep.Method, j.m.Ref(), j.site)
}

// Find enumerates all transactions of the program. Jobs — one per (entry
// point, DP site) pair — are enumerated in deterministic order and
// extracted one after another; transaction IDs follow job order, skipping
// jobs that produced no transaction.
func Find(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph, opts Options) []*Transaction {
	txs, _ := FindBudgeted(p, model, cg, opts)
	return txs
}

// FindBudgeted is Find plus graceful degradation: jobs that panic, exhaust
// a budget mid-slice, or never start because the budget was already spent
// are dropped from the transaction list and reported as diagnostics in job
// order. With a nil Options.Budget it behaves exactly like Find.
func FindBudgeted(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph, opts Options) ([]*Transaction, []budget.Diagnostic) {
	var jobs []sliceJob
	for _, ep := range p.Manifest.EntryPoints {
		if ep.Kind == ir.EventIntent && !opts.IncludeIntents {
			continue
		}
		universe := cg.ReachableBits(ep.Method)
		// Walk the universe in Ref order (EachSorted), reproducing the
		// sorted-string enumeration the map universe used.
		x := cg.Index()
		x.EachSorted(func(id uint32, m *ir.Method) bool {
			if !universe.Has(id) {
				return true
			}
			for i := range m.Instrs {
				if mm := cg.ModelAt(x.StmtID(id, i)); mm != nil && mm.DP {
					jobs = append(jobs, sliceJob{ep: ep, universe: universe, m: m, site: i, in: &m.Instrs[i], mm: mm})
				}
			}
			return true
		})
	}

	sums := opts.Summaries
	if sums == nil {
		sums = taint.NewSummaryCache()
	}
	bud := opts.Budget
	stats := opts.Col.NewShard()
	var out []*Transaction
	var diags []budget.Diagnostic
	runJob := func(j sliceJob) {
		id := j.id()
		defer func() {
			if r := recover(); r != nil {
				d := budget.PanicDiag(budget.PhaseSlice, id, r)
				d.Flight = stats.FlightDump()
				diags = append(diags, d)
			}
		}()
		if ex := bud.SliceExhausted(id); ex != nil {
			diags = append(diags, budget.SkippedDiag(budget.PhaseSlice, id, ex.Limit))
			return
		}
		if ex := bud.Over(budget.PhaseSlice, id); ex != nil {
			d := budget.SkippedDiag(budget.PhaseSlice, id, ex.Limit)
			d.Flight = stats.FlightDump()
			diags = append(diags, d)
			return
		}
		// The span starts before the fault probe so a panicking job is
		// in-flight in the ring: its flight dump names the job that died.
		sp := stats.Span(obs.CatSliceJob, id)
		defer sp.End()
		bud.MaybePanic(budget.PhaseSlice, id)
		t0 := time.Now()
		tx := buildTransaction(p, model, cg, opts, j, stats, sums)
		ns := time.Since(t0).Nanoseconds()
		stats.Add(obs.CtrSliceJobs, 1)
		stats.Add(obs.CtrSliceBusyNS, ns)
		stats.Observe(obs.HistSliceJob, ns)
		if ex := truncatedBy(tx); ex != nil {
			// A partial slice would produce a wrong signature: drop the
			// transaction and say exactly what was lost.
			d := budget.ExceededDiag(ex)
			d.Site = id
			d.Flight = stats.FlightDump()
			diags = append(diags, d)
			return
		}
		if tx != nil {
			tx.ID = len(out) + 1
			out = append(out, tx)
		}
	}
	for _, j := range jobs {
		runJob(j)
	}
	opts.Col.Drain(stats)
	return out, diags
}

// truncatedBy returns the budget error that cut one of tx's slices short,
// nil for complete (or absent) transactions.
func truncatedBy(tx *Transaction) *budget.Exceeded {
	if tx == nil {
		return nil
	}
	if tx.Request != nil && tx.Request.Truncated != nil {
		return tx.Request.Truncated
	}
	if tx.Response != nil && tx.Response.Truncated != nil {
		return tx.Response.Truncated
	}
	return nil
}

func buildTransaction(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph,
	opts Options, j sliceJob, stats *obs.Shard, sums *taint.SummaryCache) *Transaction {

	m, site, in, mm := j.m, j.site, j.in, j.mm
	tx := &Transaction{
		DP:    taint.StmtID{Method: m.Ref(), Index: site},
		DPRef: mm.Ref,
		Entry: j.ep,
	}

	eng := taint.NewEngine(p, model, cg)
	eng.MaxAsyncHops = opts.MaxAsyncHops
	eng.Universe = j.universe
	eng.Stats = stats
	eng.Summaries = sums
	eng.Budget = opts.Budget
	eng.BudgetPhase = budget.PhaseSlice

	// Request side.
	if mm.ReqArg >= 0 && mm.ReqArg < len(in.Args) {
		tx.ReqReg = in.Args[mm.ReqArg]
		tx.Request = eng.Backward(tx.DP, tx.ReqReg)
		stats.Add(obs.CtrSlicesBackward, 1)
	} else {
		return nil
	}
	if tx.Request.Truncated != nil {
		// The request slice is already partial; skip the remaining phases
		// of this job — the caller drops it with a diagnostic.
		return tx
	}

	// Response side.
	switch {
	case mm.RespRet && in.Dst != ir.NoReg:
		tx.RespRoot = tx.DP
		tx.RespRootReg = in.Dst
		tx.Response = eng.Forward(tx.RespRoot, tx.RespRootReg)
	case mm.CallbackMethod != "":
		if root, reg, ok := resolveCallback(p, cg, m, in, mm); ok {
			tx.RespRoot = root
			tx.RespRootReg = reg
			tx.Response = eng.Forward(root, reg)
		}
	}

	if tx.Response != nil {
		tx.RespConsumed = tx.Response.Size() > 1
		stats.Add(obs.CtrSlicesForward, 1)
	}

	// Object-aware augmentation: make slices self-contained (§3.1). The
	// pre-augmentation sizes are kept as provenance, so the explain layer
	// can attribute slice statements to propagation versus augmentation.
	tx.ReqStmtsSliced = tx.Request.Size()
	if tx.Response != nil {
		tx.RespStmtsSliced = tx.Response.Size()
		Augment(p, model, tx.Response)
	}
	Augment(p, model, tx.Request)

	tx.Sinks = map[string]bool{}
	tx.Sources = map[string]bool{}
	if mm.Sink != "" {
		tx.Sinks[mm.Sink] = true
	}
	if tx.Response != nil {
		for _, s := range tx.Response.Sinks() {
			tx.Sinks[s] = true
		}
	}
	for _, s := range tx.Request.Sources() {
		tx.Sources[s] = true
	}
	return tx
}

// resolveCallback locates the implicit response entry for asynchronous
// demarcation points: the onResponse-style method of the callback object's
// inferred type, with the response as its first declared parameter.
func resolveCallback(p *ir.Program, cg *callgraph.Graph, m *ir.Method,
	in *ir.Instr, mm *semmodel.Method) (taint.StmtID, int, bool) {

	if mm.CallbackArg >= len(in.Args) {
		return taint.StmtID{}, 0, false
	}
	types := cg.Types(m)
	reg := in.Args[mm.CallbackArg]
	if reg == ir.NoReg || reg >= len(types) || types[reg] == "" {
		return taint.StmtID{}, 0, false
	}
	target := p.ResolveMethod(types[reg], mm.CallbackMethod)
	if target == nil || len(target.Params) == 0 {
		return taint.StmtID{}, 0, false
	}
	// The response parameter is the first declared parameter (register 1
	// for instance methods).
	root := taint.StmtID{Method: target.Ref(), Index: 0}
	respReg := 1
	if target.Static {
		respReg = 0
	}
	return root, respReg, true
}

// Augment closes a slice over the defining statements of every register its
// statements use, restricted to pure context operations (constants, moves,
// allocations, field/static/resource reads). This reproduces the paper's
// object-aware slice augmentation: a forward slice that uses an object
// initialized before the demarcation point gains the initialization
// context it needs for signature building.
// Every statement Augment adds lives in a method already contributing to the
// slice, so each method reaches its fixpoint independently. Per method, an
// incremental worklist of newly used registers drives the closure: candidate
// statements are indexed once by the register that would pull them in
// (context-op definitions; <init> receivers), and each statement added feeds
// its own uses back into the worklist. This replaces the original
// rebuild-everything-per-iteration fixed-point loop with work proportional
// to statements actually added.
func Augment(p *ir.Program, model *semmodel.Model, res *taint.Result) {
	sc, _ := augPool.Get().(*augScratch)
	if sc == nil {
		sc = &augScratch{}
		sc.useFn = sc.markUse
	}
	sc.model, sc.idx, sc.stmts = model, res.Index(), res.Stmts()
	// Snapshot the seed statements grouped by method before augmenting:
	// augmentation only ever adds statements inside a method already
	// contributing to the slice, so the group list is complete up front and
	// each method reaches its fixpoint independently of group order.
	sc.groups = sc.groups[:0]
	sc.idx.EachStmt(sc.stmts, func(m *ir.Method, mid uint32, idx int) bool {
		if n := len(sc.groups); n == 0 || sc.groups[n-1].mid != mid {
			// Reuse a retired element (and its seed capacity) when possible.
			if n < cap(sc.groups) {
				sc.groups = sc.groups[:n+1]
				g := &sc.groups[n]
				g.m, g.mid, g.seed = m, mid, g.seed[:0]
			} else {
				sc.groups = append(sc.groups, augGroup{m: m, mid: mid})
			}
		}
		g := &sc.groups[len(sc.groups)-1]
		g.seed = append(g.seed, idx)
		return true
	})
	for i := range sc.groups {
		sc.augmentMethod(sc.groups[i].m, sc.groups[i].mid, sc.groups[i].seed)
	}
	sc.model, sc.idx, sc.stmts, sc.m = nil, nil, nil, nil
	augPool.Put(sc)
}

// augPool recycles augmentation scratch state across transactions and
// goroutines: the bucket and worklist capacity a warm scratch
// carries makes repeat augmentation allocation-free.
var augPool sync.Pool

// augGroup is one method's seed statements within a slice.
type augGroup struct {
	m    *ir.Method
	mid  uint32
	seed []int
}

// augScratch holds the per-method fixpoint state of Augment. The index
// buckets, visited-register marks, and worklist keep their capacity across
// method groups, so one Augment call allocates the closure state once
// instead of per method.
type augScratch struct {
	model *semmodel.Model
	idx   *ir.Index
	stmts *intern.Bits

	groups []augGroup

	m   *ir.Method
	mid uint32

	// defIdx/initIdx bucket candidate statements by the register whose use
	// pulls them in; used/work drive the incremental closure. Registers are
	// dense small ints, so plain slice buckets replace the maps.
	defIdx  [][]int
	initIdx [][]int
	used    []bool
	work    []int

	// useFn is the EachUse callback, bound once so the hot loop does not
	// allocate a fresh closure per statement.
	useFn func(u int)
}

// reset prepares the scratch for a method with n registers: reallocate on
// growth, otherwise clear in place (bucket capacity is retained).
func (s *augScratch) reset(n int) {
	if n > len(s.defIdx) {
		s.defIdx = make([][]int, n)
		s.initIdx = make([][]int, n)
		s.used = make([]bool, n)
	} else {
		for i := 0; i < n; i++ {
			s.defIdx[i] = s.defIdx[i][:0]
			s.initIdx[i] = s.initIdx[i][:0]
			s.used[i] = false
		}
	}
	s.work = s.work[:0]
}

func (s *augScratch) markUse(u int) {
	if u >= 0 && u < s.m.Registers && !s.used[u] {
		s.used[u] = true
		s.work = append(s.work, u)
	}
}

func (s *augScratch) add(i int) {
	if !s.stmts.Add(s.idx.StmtID(s.mid, i)) {
		return
	}
	s.m.Instrs[i].EachUse(s.useFn)
}

func (s *augScratch) augmentMethod(m *ir.Method, mid uint32, seed []int) {
	s.m, s.mid = m, mid
	s.reset(m.Registers)
	// Index candidate statements by the register whose use pulls them in:
	// pure context operations by their defined register, constructors
	// (which mutate without defining) by their receiver.
	for i := range m.Instrs {
		in := &m.Instrs[i]
		if d := in.Def(); d != ir.NoReg && d < m.Registers && isContextOp(s.model, in) {
			s.defIdx[d] = append(s.defIdx[d], i)
		}
		if in.Op == ir.OpInvoke && in.Kind == ir.InvokeSpecial &&
			len(in.Args) > 0 && isInitRef(in.Sym) {
			if r := in.Args[0]; r >= 0 && r < m.Registers {
				s.initIdx[r] = append(s.initIdx[r], i)
			}
		}
	}
	for _, i := range seed {
		m.Instrs[i].EachUse(s.useFn)
	}
	for len(s.work) > 0 {
		r := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		for _, i := range s.defIdx[r] {
			s.add(i)
		}
		for _, i := range s.initIdx[r] {
			s.add(i)
		}
	}
}

func isInitRef(sym string) bool {
	_, name, ok := ir.SplitRef(sym)
	return ok && name == "<init>"
}

// isContextOp reports whether an instruction may be pulled into a slice as
// pure initialization context.
func isContextOp(model *semmodel.Model, in *ir.Instr) bool {
	switch in.Op {
	case ir.OpConstStr, ir.OpConstInt, ir.OpConstNull, ir.OpMove, ir.OpNew,
		ir.OpStaticGet, ir.OpFieldGet, ir.OpBinop:
		return true
	case ir.OpInvoke:
		if mm := model.Lookup(in.Sym); mm != nil {
			switch mm.Kind {
			case semmodel.KResGetString, semmodel.KStringBuilderInit,
				semmodel.KValueOf, semmodel.KPassThrough, semmodel.KToString:
				return true
			}
		}
		return isInitRef(in.Sym)
	}
	return false
}
