// Package callgraph builds the inter-procedural call graph the slicer and
// taint engine traverse. Dispatch is resolved with class-hierarchy analysis
// (CHA); implicit call flows introduced by thread and async libraries
// (AsyncTask, Volley, Retrofit, Thread, Timer, ... — §3.4) become explicit
// edges using the callback registry carried by the semantic model, in the
// spirit of EdgeMiner.
package callgraph

import (
	"cmp"
	"slices"
	"sync/atomic"

	"extractocol/internal/cfg"
	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
)

// Edge is one resolved call: the instruction at Site in Caller may invoke
// Callee. Both ends are dense method IDs in the graph's ir.Index; strings
// appear only where a caller resolves an ID back to its ref. Implicit marks
// callback edges synthesized from async registrations rather than direct
// invocations.
type Edge struct {
	Caller   uint32 // dense method ID
	Site     int32  // instruction index within the caller; -1 for an async chain edge
	Callee   uint32 // dense method ID (always an app method)
	Implicit bool
}

// Graph is the call graph over app methods, in ir.Index space. Beyond the
// edges it carries the per-program tables every transaction extraction
// reads: the semantic-model entry of each invoke, each app method's
// inferred register types, the memoized per-root reachable sets and the
// memoized per-method control-flow plans. Build fills all of them but the
// reachable sets and the plans, which fill on first query; every query is
// safe for concurrent readers.
type Graph struct {
	prog *ir.Program
	idx  *ir.Index

	// Compressed adjacency: method id's outgoing edges are
	// out[outBase[id]:outBase[id+1]], ordered by (site, callee ref), and its
	// incoming edges in[inBase[id]:inBase[id+1]], in insertion order.
	out, in         []Edge
	outBase, inBase []uint32

	sem   []*semmodel.Method            // statement ID -> model entry of the invoke there
	types [][]string                    // app method ID -> inferred register types
	reach []atomic.Pointer[intern.Bits] // root method ID -> reachable method-ID set
	plans []atomic.Pointer[cfg.Plan]    // method ID -> control-flow plan
	none  intern.Bits                   // the reachable set of a root the program lacks

	typesHits, typesMisses atomic.Int64
	reachHits, reachMisses atomic.Int64
}

// Build constructs the call graph for every app method in p.
func Build(p *ir.Program, model *semmodel.Model) *Graph {
	idx := ir.NewIndex(p)
	n := idx.NumMethods()
	g := &Graph{prog: p, idx: idx,
		sem:   make([]*semmodel.Method, idx.NumStmts()),
		types: make([][]string, n),
		reach: make([]atomic.Pointer[intern.Bits], n),
		plans: make([]atomic.Pointer[cfg.Plan], n)}
	var edges []Edge
	id := uint32(0)
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			for i := range m.Instrs {
				if in := &m.Instrs[i]; in.Op == ir.OpInvoke {
					g.sem[idx.StmtID(id, i)] = model.Lookup(in.Sym)
				}
			}
			if !c.Library {
				g.types[id] = InferTypes(p, m)
				g.typesMisses.Add(1)
				edges = g.methodEdges(edges, id, m)
			}
			id++
		}
	}
	g.out, g.outBase = adjacency(edges, n, func(e *Edge) uint32 { return e.Caller })
	g.in, g.inBase = adjacency(edges, n, func(e *Edge) uint32 { return e.Callee })
	for c := 0; c < n; c++ {
		slices.SortStableFunc(g.out[g.outBase[c]:g.outBase[c+1]], func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.Site, b.Site), cmp.Compare(idx.RefRank(a.Callee), idx.RefRank(b.Callee)))
		})
	}
	return g
}

// adjacency groups edges by key with a stable counting sort, so each
// method's list keeps insertion order, and returns the grouped edges with
// the per-method bounds.
func adjacency(edges []Edge, n int, key func(*Edge) uint32) ([]Edge, []uint32) {
	base := make([]uint32, n+1)
	for i := range edges {
		base[key(&edges[i])+1]++
	}
	for i := 1; i <= n; i++ {
		base[i] += base[i-1]
	}
	out := make([]Edge, len(edges))
	next := make([]uint32, n)
	copy(next, base)
	for i := range edges {
		k := key(&edges[i])
		out[next[k]] = edges[i]
		next[k]++
	}
	return out, base
}

// methodEdges appends the edges of every call site in method id.
func (g *Graph) methodEdges(edges []Edge, id uint32, m *ir.Method) []Edge {
	types := g.types[id]
	for i := range m.Instrs {
		in := &m.Instrs[i]
		if in.Op != ir.OpInvoke {
			continue
		}
		cls, name, ok := ir.SplitRef(in.Sym)
		if !ok {
			continue
		}
		site := int32(i)

		// Implicit callback edges from modeled async registrations.
		if e := g.sem[g.idx.StmtID(id, i)]; e != nil && e.CallbackMethod != "" {
			edges = g.callbackEdges(edges, id, site, in, e, types)
			continue
		}

		// Direct edges to app methods.
		switch in.Kind {
		case ir.InvokeStatic, ir.InvokeSpecial:
			if target, ok := g.idx.ResolveMethod(cls, name); ok {
				edges = append(edges, Edge{Caller: id, Site: site, Callee: target})
			}
		default: // virtual / interface dispatch
			// Prefer the precise receiver type when locally inferable.
			recvCls := cls
			if len(in.Args) > 0 && in.Args[0] >= 0 && in.Args[0] < len(types) && types[in.Args[0]] != "" {
				if g.idx.HasClass(types[in.Args[0]]) {
					recvCls = types[in.Args[0]]
				}
			}
			// Targets are deduplicated against the edges this site already
			// added: edges[lo:].
			lo := len(edges)
			if target, ok := g.idx.ResolveMethod(recvCls, name); ok {
				edges = addSiteEdge(edges, lo, Edge{Caller: id, Site: site, Callee: target})
			}
			// CHA: any subclass override is a possible target.
			for _, sub := range g.idx.Subclasses(recvCls) {
				if target, ok := g.idx.OwnMethod(sub, name); ok {
					edges = addSiteEdge(edges, lo, Edge{Caller: id, Site: site, Callee: target})
				}
			}
			// Interface dispatch: implementers of the declared interface.
			if !g.idx.HasClass(recvCls) || in.Kind == ir.InvokeInterface {
				for _, impl := range g.idx.Implementers(recvCls) {
					if target, ok := g.idx.ResolveMethod(impl, name); ok {
						edges = addSiteEdge(edges, lo, Edge{Caller: id, Site: site, Callee: target})
					}
				}
			}
		}
	}
	return edges
}

// addSiteEdge appends e unless one of the call site's edges, edges[lo:],
// already reaches its callee.
func addSiteEdge(edges []Edge, lo int, e Edge) []Edge {
	for _, prev := range edges[lo:] {
		if prev.Callee == e.Callee {
			return edges
		}
	}
	return append(edges, e)
}

// callbackEdges synthesizes an implicit edge for an async registration
// like task.execute(...) -> Task.doInBackground, thread.start() -> run.
func (g *Graph) callbackEdges(edges []Edge, id uint32, site int32, in *ir.Instr, e *semmodel.Method, types []string) []Edge {
	if e.CallbackArg >= len(in.Args) {
		return edges
	}
	reg := in.Args[e.CallbackArg]
	if reg == ir.NoReg || reg >= len(types) {
		return edges
	}
	cbType := types[reg]
	if cbType == "" {
		return edges
	}
	target, ok := g.idx.ResolveMethod(cbType, e.CallbackMethod)
	if !ok {
		return edges
	}
	edges = append(edges, Edge{Caller: id, Site: site, Callee: target, Implicit: true})

	// AsyncTask chains doInBackground's result into onPostExecute.
	if e.Kind == semmodel.KAsyncExecute {
		if post, ok := g.idx.ResolveMethod(cbType, "onPostExecute"); ok {
			edges = append(edges, Edge{Caller: target, Site: -1, Callee: post, Implicit: true})
		}
	}
	return edges
}

// Callees returns all outgoing edges of method caller, ordered by (site,
// callee ref). The slice is shared; callers must treat it as read-only.
func (g *Graph) Callees(caller uint32) []Edge {
	lo, hi := g.outBase[caller], g.outBase[caller+1]
	return g.out[lo:hi:hi]
}

// Callers returns all incoming edges of method callee, in the order Build
// found them. The slice is shared; callers must treat it as read-only.
func (g *Graph) Callers(callee uint32) []Edge {
	lo, hi := g.inBase[callee], g.inBase[callee+1]
	return g.in[lo:hi:hi]
}

// CalleesAt returns the resolved targets of the call site at instruction
// index site in method caller: a subslice of Callees, so it allocates
// nothing.
func (g *Graph) CalleesAt(caller uint32, site int) []Edge {
	es := g.Callees(caller)
	lo, hi := 0, len(es)
	for lo < hi { // first edge with Site >= site
		mid := int(uint(lo+hi) >> 1)
		if int(es[mid].Site) < site {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	hi = lo
	for hi < len(es) && int(es[hi].Site) == site {
		hi++
	}
	return es[lo:hi:hi]
}

// ModelAt returns the semantic-model entry of the invoke at dense
// statement stmt, resolved once by Build; nil when stmt is not an invoke of
// a modeled API.
func (g *Graph) ModelAt(stmt uint32) *semmodel.Method { return g.sem[stmt] }

// Types returns the register types Build inferred for m (see InferTypes),
// resolving m by ref; a method outside the program is inferred afresh. The
// returned slice is shared: callers must treat it as read-only.
func (g *Graph) Types(m *ir.Method) []string {
	if id, ok := g.idx.MethodID(m.Ref()); ok {
		return g.TypesOf(id)
	}
	g.typesMisses.Add(1)
	return InferTypes(g.prog, m)
}

// TypesOf returns the register types Build inferred for method id; a
// library method, which Build does not tabulate, is inferred afresh. The
// returned slice is shared: callers must treat it as read-only.
func (g *Graph) TypesOf(id uint32) []string {
	if t := g.types[id]; t != nil {
		g.typesHits.Add(1)
		return t
	}
	g.typesMisses.Add(1)
	return InferTypes(g.prog, g.idx.MethodAt(id))
}

// Index returns the program's dense method/statement index, built once by
// Build and read-only afterwards (safe for concurrent use).
func (g *Graph) Index() *ir.Index { return g.idx }

// ReachableBits returns the memoized per-entry-point transaction universe:
// the dense IDs of the methods reachable from root along direct and
// implicit edges, so the taint engine's gate checks are single bit tests.
// The first query per root walks the out-edges in ID space; later queries
// return the same set. The returned set is shared: callers must treat it
// as read-only. Safe for concurrent use.
func (g *Graph) ReachableBits(root string) *intern.Bits {
	id, ok := g.idx.MethodID(root)
	if !ok {
		g.reachMisses.Add(1)
		return &g.none
	}
	if b := g.reach[id].Load(); b != nil {
		g.reachHits.Add(1)
		return b
	}
	g.reachMisses.Add(1)
	b := intern.NewBits(g.idx.NumMethods())
	b.Add(id)
	stack := []uint32{id}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Callees(m) {
			if b.Add(e.Callee) {
				stack = append(stack, e.Callee)
			}
		}
	}
	if !g.reach[id].CompareAndSwap(nil, b) {
		b = g.reach[id].Load() // another goroutine won; keep one canonical set
	}
	return b
}

// PlanOf returns the control-flow plan of method id (cfg.NewPlan), built
// by the first query and returned by every later one, so a method
// interpreted many times builds its CFG, dominators and loops once per
// program. The returned plan is shared: callers must treat it as
// read-only. Safe for concurrent use.
func (g *Graph) PlanOf(id uint32) *cfg.Plan {
	if p := g.plans[id].Load(); p != nil {
		return p
	}
	p := cfg.NewPlan(g.idx.MethodAt(id))
	if !g.plans[id].CompareAndSwap(nil, p) {
		p = g.plans[id].Load() // another goroutine won; keep one canonical plan
	}
	return p
}

// DrainCacheCounters moves the cache hit/miss totals accumulated since the
// last drain into col, under the cache_reachable_* and cache_infertypes_*
// counters.
func (g *Graph) DrainCacheCounters(col *obs.Collector) {
	col.Add(obs.CtrCacheReachableHits, g.reachHits.Swap(0))
	col.Add(obs.CtrCacheReachableMisses, g.reachMisses.Swap(0))
	col.Add(obs.CtrCacheInferTypesHits, g.typesHits.Swap(0))
	col.Add(obs.CtrCacheInferTypesMisses, g.typesMisses.Swap(0))
}

// InferTypes performs a simple intra-procedural forward type inference for
// m's registers: declared parameter types, allocation sites, field types,
// string/int constants and app-method return types. The first inferred
// type for a register wins; authored bytecode is close to SSA form so this
// is sufficient for dispatch and callback resolution.
func InferTypes(p *ir.Program, m *ir.Method) []string {
	types := make([]string, m.Registers)
	idx := 0
	if !m.Static {
		if idx < len(types) {
			types[idx] = m.Class.Name
		}
		idx++
	}
	for _, pt := range m.Params {
		if idx < len(types) {
			types[idx] = pt
		}
		idx++
	}
	set := func(r int, t string) {
		if r >= 0 && r < len(types) && types[r] == "" && t != "" {
			types[r] = t
		}
	}
	for i := range m.Instrs {
		in := &m.Instrs[i]
		switch in.Op {
		case ir.OpNew:
			set(in.Dst, in.Sym)
		case ir.OpConstStr:
			set(in.Dst, "java.lang.String")
		case ir.OpConstInt:
			set(in.Dst, "int")
		case ir.OpMove:
			if in.A >= 0 && in.A < len(types) {
				set(in.Dst, types[in.A])
			}
		case ir.OpFieldGet:
			if in.A >= 0 && in.A < len(types) && types[in.A] != "" {
				if c := p.Class(types[in.A]); c != nil {
					if f := c.Field(in.Sym); f != nil {
						set(in.Dst, f.Type)
					}
				}
			}
			if in.Dst < len(types) && in.Dst >= 0 && types[in.Dst] == "" {
				// Fall back to a field declared anywhere in the owner class
				// named by the instruction when the receiver type is unknown.
				if c := m.Class; c != nil {
					if f := c.Field(in.Sym); f != nil {
						set(in.Dst, f.Type)
					}
				}
			}
		case ir.OpStaticGet:
			cls, fname, ok := ir.SplitRef(in.Sym)
			if ok {
				if c := p.Class(cls); c != nil {
					if f := c.Field(fname); f != nil {
						set(in.Dst, f.Type)
					}
				}
			}
		case ir.OpInvoke:
			if in.Dst != ir.NoReg {
				if target := p.Method(in.Sym); target != nil {
					set(in.Dst, target.Return)
				}
			}
		}
	}
	return types
}
