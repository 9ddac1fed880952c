// Package callgraph builds the inter-procedural call graph the slicer and
// taint engine traverse. Dispatch is resolved with class-hierarchy analysis
// (CHA); implicit call flows introduced by thread and async libraries
// (AsyncTask, Volley, Retrofit, Thread, Timer, ... — §3.4) become explicit
// edges using the callback registry carried by the semantic model, in the
// spirit of EdgeMiner.
package callgraph

import (
	"sort"
	"sync"
	"sync/atomic"

	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
)

// Edge is one resolved call: the instruction at Site in Caller may invoke
// Callee. Implicit marks callback edges synthesized from async
// registrations rather than direct invocations.
type Edge struct {
	Caller   string // fully qualified method ref
	Site     int    // instruction index within the caller
	Callee   string // fully qualified method ref (always an app method)
	Implicit bool
}

// Graph is the call graph over app methods. Beyond the edge sets it carries
// the per-program analysis cache shared by every transaction extraction:
// memoized per-method type inference and per-root reachability, safe for
// concurrent readers (the slice worker pool queries both from many
// goroutines at once).
type Graph struct {
	prog  *ir.Program
	model *semmodel.Model
	idx   *ir.Index
	out   map[string][]Edge // caller -> edges
	in    map[string][]Edge // callee -> edges

	mu        sync.RWMutex
	types     map[string][]string        // method ref -> inferred register types
	reach     map[string]map[string]bool // root ref -> reachable method set
	reachBits map[string]*intern.Bits    // root ref -> reachable method-ID set

	typesHits, typesMisses atomic.Int64
	reachHits, reachMisses atomic.Int64
}

// Build constructs the call graph for every app method in p.
func Build(p *ir.Program, model *semmodel.Model) *Graph {
	g := &Graph{prog: p, model: model, idx: ir.NewIndex(p),
		out: map[string][]Edge{}, in: map[string][]Edge{},
		types: map[string][]string{}, reach: map[string]map[string]bool{},
		reachBits: map[string]*intern.Bits{}}
	for _, c := range p.AppClasses() {
		for _, m := range c.Methods {
			g.addMethodEdges(m)
		}
	}
	for _, edges := range g.out {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Site != edges[j].Site {
				return edges[i].Site < edges[j].Site
			}
			return edges[i].Callee < edges[j].Callee
		})
	}
	return g
}

func (g *Graph) addMethodEdges(m *ir.Method) {
	types := g.Types(m)
	for i := range m.Instrs {
		in := &m.Instrs[i]
		if in.Op != ir.OpInvoke {
			continue
		}
		cls, name, ok := ir.SplitRef(in.Sym)
		if !ok {
			continue
		}

		// Implicit callback edges from modeled async registrations.
		if e := g.model.Lookup(in.Sym); e != nil && e.CallbackMethod != "" {
			g.addCallbackEdge(m, i, in, e, types)
			continue
		}

		// Direct edges to app methods.
		switch in.Kind {
		case ir.InvokeStatic, ir.InvokeSpecial:
			if target := g.prog.ResolveMethod(cls, name); target != nil {
				g.addEdge(Edge{Caller: m.Ref(), Site: i, Callee: target.Ref()})
			}
		default: // virtual / interface dispatch
			// Prefer the precise receiver type when locally inferable.
			recvCls := cls
			if len(in.Args) > 0 && in.Args[0] < len(types) && types[in.Args[0]] != "" {
				if g.prog.Class(types[in.Args[0]]) != nil {
					recvCls = types[in.Args[0]]
				}
			}
			added := map[string]bool{}
			if target := g.prog.ResolveMethod(recvCls, name); target != nil {
				g.addEdge(Edge{Caller: m.Ref(), Site: i, Callee: target.Ref()})
				added[target.Ref()] = true
			}
			// CHA: any subclass override is a possible target.
			for _, sub := range g.idx.Subclasses(recvCls) {
				if sc := g.prog.Class(sub); sc != nil {
					if sm := sc.Method(name); sm != nil && !added[sm.Ref()] {
						g.addEdge(Edge{Caller: m.Ref(), Site: i, Callee: sm.Ref()})
						added[sm.Ref()] = true
					}
				}
			}
			// Interface dispatch: implementers of the declared interface.
			if g.prog.Class(recvCls) == nil || in.Kind == ir.InvokeInterface {
				for _, impl := range g.idx.Implementers(recvCls) {
					if target := g.prog.ResolveMethod(impl, name); target != nil && !added[target.Ref()] {
						g.addEdge(Edge{Caller: m.Ref(), Site: i, Callee: target.Ref()})
						added[target.Ref()] = true
					}
				}
			}
		}
	}
}

// addCallbackEdge synthesizes an implicit edge for an async registration
// like task.execute(...) -> Task.doInBackground, thread.start() -> run.
func (g *Graph) addCallbackEdge(m *ir.Method, site int, in *ir.Instr, e *semmodel.Method, types []string) {
	if e.CallbackArg >= len(in.Args) {
		return
	}
	reg := in.Args[e.CallbackArg]
	if reg == ir.NoReg || reg >= len(types) {
		return
	}
	cbType := types[reg]
	if cbType == "" {
		return
	}
	target := g.prog.ResolveMethod(cbType, e.CallbackMethod)
	if target == nil {
		return
	}
	g.addEdge(Edge{Caller: m.Ref(), Site: site, Callee: target.Ref(), Implicit: true})

	// AsyncTask chains doInBackground's result into onPostExecute.
	if e.Kind == semmodel.KAsyncExecute {
		if post := g.prog.ResolveMethod(cbType, "onPostExecute"); post != nil {
			g.addEdge(Edge{Caller: target.Ref(), Site: -1, Callee: post.Ref(), Implicit: true})
		}
	}
}

func (g *Graph) addEdge(e Edge) {
	g.out[e.Caller] = append(g.out[e.Caller], e)
	g.in[e.Callee] = append(g.in[e.Callee], e)
}

// CalleesAt returns the resolved targets of the call site at instruction
// index site in caller.
func (g *Graph) CalleesAt(caller string, site int) []Edge {
	var out []Edge
	for _, e := range g.out[caller] {
		if e.Site == site {
			out = append(out, e)
		}
	}
	return out
}

// Callees returns all outgoing edges of caller.
func (g *Graph) Callees(caller string) []Edge { return g.out[caller] }

// Callers returns all incoming edges of callee.
func (g *Graph) Callers(callee string) []Edge { return g.in[callee] }

// Types returns the memoized intra-procedural register types of m (see
// InferTypes). The returned slice is shared: callers must treat it as
// read-only. Safe for concurrent use; Build warms the cache for every app
// method, so post-build queries are hits.
func (g *Graph) Types(m *ir.Method) []string {
	ref := m.Ref()
	g.mu.RLock()
	t, ok := g.types[ref]
	g.mu.RUnlock()
	if ok {
		g.typesHits.Add(1)
		return t
	}
	g.typesMisses.Add(1)
	t = InferTypes(g.prog, m)
	g.mu.Lock()
	if prev, ok := g.types[ref]; ok {
		t = prev // another goroutine built it first; keep one canonical slice
	} else {
		g.types[ref] = t
	}
	g.mu.Unlock()
	return t
}

// ReachableFrom returns the memoized reachable set of a single root (the
// per-entry-point transaction universe). The returned map is shared:
// callers must treat it as read-only. Safe for concurrent use.
func (g *Graph) ReachableFrom(root string) map[string]bool {
	g.mu.RLock()
	r, ok := g.reach[root]
	g.mu.RUnlock()
	if ok {
		g.reachHits.Add(1)
		return r
	}
	g.reachMisses.Add(1)
	r = g.Reachable([]string{root})
	g.mu.Lock()
	if prev, ok := g.reach[root]; ok {
		r = prev
	} else {
		g.reach[root] = r
	}
	g.mu.Unlock()
	return r
}

// Index returns the program's dense method/statement index, built once by
// Build and read-only afterwards (safe for concurrent use).
func (g *Graph) Index() *ir.Index { return g.idx }

// ReachableBits is ReachableFrom over dense method IDs: the memoized
// per-entry-point transaction universe as an intern.Bits, so the taint
// engine's gate checks are single bit tests. The returned set is shared:
// callers must treat it as read-only. Safe for concurrent use.
func (g *Graph) ReachableBits(root string) *intern.Bits {
	g.mu.RLock()
	b, ok := g.reachBits[root]
	g.mu.RUnlock()
	if ok {
		g.reachHits.Add(1)
		return b
	}
	g.reachMisses.Add(1)
	r := g.Reachable([]string{root})
	b = intern.NewBits(g.idx.NumMethods())
	for ref := range r {
		if id, ok := g.idx.MethodID(ref); ok {
			b.Add(id)
		}
	}
	g.mu.Lock()
	if prev, ok := g.reachBits[root]; ok {
		b = prev
	} else {
		g.reachBits[root] = b
	}
	g.mu.Unlock()
	return b
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

// Reachable computes the set of method refs reachable from the given
// roots, following both direct and implicit edges. The result is freshly
// allocated; prefer ReachableFrom for the memoized single-root variant.
func (g *Graph) Reachable(roots []string) map[string]bool {
	seen := map[string]bool{}
	var stack []string
	for _, r := range roots {
		if g.prog.Method(r) != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[m] {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				stack = append(stack, e.Callee)
			}
		}
	}
	return seen
}

// AnalysisRoots returns the entry-point methods the static analyzer may
// legitimately start from. Intent-triggered entry points are excluded: the
// paper's system does not model Android intents (§4), which is the root
// cause of its missed messages in Table 1.
func AnalysisRoots(p *ir.Program) []string {
	var out []string
	for _, ep := range p.Manifest.EntryPoints {
		if ep.Kind == ir.EventIntent {
			continue
		}
		out = append(out, ep.Method)
	}
	sort.Strings(out)
	return out
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
