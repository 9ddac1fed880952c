package taint

import (
	"sort"
	"sync"
	"sync/atomic"

	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
)

// This file implements IFDS-style summary reuse for the taint engine.
//
// Both propagation directions process one worklist fact at a time, and the
// work done for a fact — scanning the owning method for definitions, uses
// and mutations, resolving call edges, deriving heap locations — depends
// only on the program, the semantic model and the call graph, never on the
// transaction being sliced. The context-dependent parts (the per-entry-point
// universe restriction and the §3.4 async-hop budget) only decide whether a
// propagation step applies, not what it is.
//
// A transfer summary therefore records, per (direction, method, register)
// query, the ordered list of effects the engine would perform: statements to
// include (with their modeled source/sink tags), heap locations to record,
// and successor facts to push. Effects that the direct implementation guards
// with a universe check carry the guarded method as a gate; replay applies a
// gated group only when the gate method is inside the engine's universe or
// the fact has already escaped it (hops > 0), exactly mirroring the direct
// rules. Heap fact propagation is handled by a program-wide access index
// (location -> writers / readers) built once on first use.
//
// The scan logic in backward.go and forward.go emits effects through the
// sumEmitter interface. denseBuilder lowers them straight to compiled form —
// statement and method names resolved through the program's ir.Index, heap
// locations and tags interned through the cache's symbol table — so the hot
// worklist loop replays pure integer effects. The interface is also the seam
// the package tests use to replay the same scans through the pre-interning
// string/map reference implementation. Because effects replay in recorded
// order and recorded order equals the scan order of the direct
// implementation, a summarized engine produces byte-identical slices to the
// pre-summary engine, while every transaction after the first reuses the
// summaries instead of re-traversing shared callees.

// heapSite is one statement accessing a heap location: a writer (field/
// static put, reg = stored register) for backward propagation, or a reader
// (field/static get, reg = destination register) for forward propagation.
type heapSite struct {
	method string
	index  int
	reg    int
}

// gateUnresolved marks a gate method the index cannot resolve (impossible
// for summaries built over an indexed program, kept defensively): it fails
// every non-nil universe.
const gateUnresolved = intern.None - 1

// cInclude is one statement joining the slice: a program-index statement ID
// plus its modeled source/sink tags, resolved at build time so replay needs
// no instruction access (intern.None when untagged).
type cInclude struct {
	stmt   uint32
	source uint32
	sink   uint32
}

// cPush is one successor fact (hops are assigned at replay time).
type cPush struct {
	heap   bool
	method uint32 // local pushes: dense method ID
	reg    int32  // local pushes: register
	loc    uint32 // heap pushes: interned location ID
}

// cEntry is one ordered group of effects. gate == intern.None applies
// always; otherwise the group applies only when the gate method is in the
// universe or the fact has hops > 0.
type cEntry struct {
	gate       uint32
	includes   []cInclude
	heapReads  []uint32
	heapWrites []uint32
	pushes     []cPush
}

// cSummary is the full compiled transfer summary of one (method, register)
// query in one direction.
type cSummary struct {
	entries []cEntry
}

// cHeapSite is heapSite in dense form.
type cHeapSite struct {
	method uint32
	stmt   uint32
	reg    int32
}

// SummaryCache memoizes compiled taint transfer summaries and the
// program-wide heap access index, and owns the symbol table heap locations
// and source/sink tags are interned through. One cache may be shared by any
// number of engines analyzing the same (program, model, call graph) triple —
// core.Analyze shares one across all slice workers and the pairing flow
// checks — and is safe for concurrent use. The zero value is not usable;
// call NewSummaryCache.
type SummaryCache struct {
	mu  sync.RWMutex
	tab *intern.SyncTable

	// Compiled summaries keyed by methodID<<32|reg, and the heap access
	// index keyed by interned location.
	cbwd     map[uint64]*cSummary
	cfwd     map[uint64]*cSummary
	cwriters map[uint32][]cHeapSite
	creaders map[uint32][]cHeapSite

	hits, misses atomic.Int64
}

// NewSummaryCache returns an empty cache.
func NewSummaryCache() *SummaryCache {
	return &SummaryCache{
		tab:  &intern.SyncTable{},
		cbwd: map[uint64]*cSummary{}, cfwd: map[uint64]*cSummary{},
	}
}

// Table returns the cache's shared symbol table.
func (c *SummaryCache) Table() *intern.SyncTable { return c.tab }

// DrainCounters moves the summary hit/miss totals accumulated since the
// last drain into col, under the cache_summaries_* counters.
func (c *SummaryCache) DrainCounters(col *obs.Collector) {
	if c == nil {
		return
	}
	col.Add(obs.CtrCacheSummaryHits, c.hits.Swap(0))
	col.Add(obs.CtrCacheSummaryMisses, c.misses.Swap(0))
}

// compiledBackward returns the compiled backward summary for (method, reg),
// building it with e on first use.
func (c *SummaryCache) compiledBackward(e *Engine, method uint32, reg int32) *cSummary {
	return c.compiledLookup(c.cbwd, method, reg, e.scanBackward, e)
}

// compiledForward returns the compiled forward summary for (method, reg).
func (c *SummaryCache) compiledForward(e *Engine, method uint32, reg int32) *cSummary {
	return c.compiledLookup(c.cfwd, method, reg, e.scanForward, e)
}

func (c *SummaryCache) compiledLookup(m map[uint64]*cSummary, method uint32, reg int32,
	scan func(b sumEmitter, method string, reg int), e *Engine) *cSummary {
	k := uint64(method)<<32 | uint64(uint32(reg))
	c.mu.RLock()
	s, ok := m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return s
	}
	c.misses.Add(1)
	b := newDenseBuilder(e)
	scan(b, e.idx.MethodAt(method).Ref(), int(reg))
	s = b.done()
	c.mu.Lock()
	if prev, ok := m[k]; ok {
		s = prev
	} else {
		m[k] = s
	}
	c.mu.Unlock()
	return s
}

// heapWritersDense returns the dense writer index entry for an interned
// location, building the index on first use.
func (c *SummaryCache) heapWritersDense(e *Engine, loc uint32) []cHeapSite {
	c.mu.RLock()
	idx := c.cwriters
	c.mu.RUnlock()
	if idx == nil {
		idx = c.buildHeapIndexDense(e, true)
	} else {
		c.hits.Add(1)
	}
	return idx[loc]
}

// heapReadersDense returns the dense reader index entry for an interned
// location.
func (c *SummaryCache) heapReadersDense(e *Engine, loc uint32) []cHeapSite {
	c.mu.RLock()
	idx := c.creaders
	c.mu.RUnlock()
	if idx == nil {
		idx = c.buildHeapIndexDense(e, false)
	} else {
		c.hits.Add(1)
	}
	return idx[loc]
}

// scanHeapSites scans every app method once, indexing heap accesses by
// location in program order (class insertion order, then method order, then
// instruction order — the order the direct implementation visited them).
func (e *Engine) scanHeapSites(writes bool) map[string][]heapSite {
	idx := map[string][]heapSite{}
	for _, cl := range e.Prog.AppClasses() {
		for _, m := range cl.Methods {
			for i := range m.Instrs {
				in := &m.Instrs[i]
				var loc string
				var reg int
				switch {
				case writes && in.Op == ir.OpFieldPut:
					loc, reg = e.heapLoc(m, in), in.B
				case writes && in.Op == ir.OpStaticPut:
					loc, reg = "s:"+in.Sym, in.B
				case !writes && in.Op == ir.OpFieldGet:
					loc, reg = e.heapLoc(m, in), in.Dst
				case !writes && in.Op == ir.OpStaticGet:
					loc, reg = "s:"+in.Sym, in.Dst
				default:
					continue
				}
				idx[loc] = append(idx[loc], heapSite{method: m.Ref(), index: i, reg: reg})
			}
		}
	}
	return idx
}

// buildHeapIndexDense builds and installs the dense heap access index:
// locations interned in sorted order (so the symbol table's contents are
// deterministic), sites resolved to dense method/statement IDs with their
// per-location program order preserved.
func (c *SummaryCache) buildHeapIndexDense(e *Engine, writes bool) map[uint32][]cHeapSite {
	c.misses.Add(1)
	scan := e.scanHeapSites(writes)
	locs := make([]string, 0, len(scan))
	for l := range scan {
		locs = append(locs, l)
	}
	sort.Strings(locs)
	idx := make(map[uint32][]cHeapSite, len(scan))
	for _, l := range locs {
		sites := scan[l]
		cs := make([]cHeapSite, 0, len(sites))
		for _, s := range sites {
			mid, ok := e.idx.MethodID(s.method)
			if !ok {
				continue
			}
			cs = append(cs, cHeapSite{method: mid, stmt: e.idx.StmtID(mid, s.index), reg: int32(s.reg)})
		}
		idx[c.tab.Intern(l)] = cs
	}
	c.mu.Lock()
	if writes {
		if c.cwriters != nil {
			idx = c.cwriters
		} else {
			c.cwriters = idx
		}
	} else {
		if c.creaders != nil {
			idx = c.creaders
		} else {
			c.creaders = idx
		}
	}
	c.mu.Unlock()
	return idx
}

// sumEmitter receives transfer-summary effects in emission order. The scan
// logic in backward.go/forward.go is written against this interface;
// denseBuilder below produces the compiled form the engine replays, and the
// package tests implement it to build the string form the reference replay
// consumes from the same scans.
//
// Gated groups are emitted as begin(gate) ... effects ... end(); an empty
// group (no effects between begin and end) is dropped, which mirrors the
// pre-interface builders' "only append non-empty gated entries" call sites.
type sumEmitter interface {
	// include adds statement idx of m to the slice, resolving modeled
	// source/sink tags at build time so replay is instruction-free.
	include(m *ir.Method, idx int)
	// push emits a successor local fact (hops assigned at replay).
	push(method string, reg int)
	// pushHeap emits a successor heap fact.
	pushHeap(loc string)
	heapRead(loc string)
	heapWrite(loc string)
	// begin opens a universe-gated effect group; end closes it.
	begin(gate string)
	end()
}

// sumTags resolves the modeled source/sink tags of statement idx.
func (e *Engine) sumTags(m *ir.Method, idx int) (source, sink string) {
	in := &m.Instrs[idx]
	if in.Op == ir.OpInvoke {
		if mm := e.Model.Lookup(in.Sym); mm != nil {
			return mm.Source, mm.Sink
		}
	}
	return "", ""
}

// denseBuilder lowers effects straight to compiled form: statement and
// method names resolved through the engine's program index, heap locations
// and tags interned through the cache's symbol table. It resolves method
// refs through a one-entry memo (consecutive effects overwhelmingly hit the
// same method).
//
// The builder is allocation-frugal: effects accumulate in reusable buffers
// (one active entry at a time — begin() flushes the pending unconditional
// entry before a gated group opens, so the unconditional and gated entries
// never accumulate concurrently) and each finished entry copies out at
// exact size. One builder per engine is recycled across summaries.
type denseBuilder struct {
	e   *Engine
	tab *intern.SyncTable

	entries []cEntry // finished entries of the summary under construction
	gate    uint32   // gate of the open group; intern.None when unconditional
	inGate  bool

	// active entry accumulation buffers; capacity reused across entries
	// and summaries.
	includes   []cInclude
	heapReads  []uint32
	heapWrites []uint32
	pushes     []cPush

	// slabs back the finished summaries: finished entries copy into large
	// shared arrays (capacity-trimmed subslices, see takeSlab), so building
	// a summary costs amortized-zero allocations instead of one per field.
	// Cached summaries keep the slabs alive; the builder never rewrites
	// published regions.
	incSlab  []cInclude
	u32Slab  []uint32 // heap reads and writes share one slab
	pushSlab []cPush
	entSlab  []cEntry
	sumSlab  []cSummary

	lastRef string // last method ref resolved by mid()
	lastID  uint32
	lastOK  bool
}

// takeSlab copies src onto the end of the slab and returns the stored
// subslice, capacity-trimmed so later slab appends can never alias it.
// Slab growth abandons the old backing array to the subslices already
// pointing into it (they are immutable once published).
func takeSlab[T any](slab *[]T, src []T) []T {
	start := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[start:len(*slab):len(*slab)]
}

// newDenseBuilder returns the engine's recycled builder, reset for a new
// summary. Engines run one fixpoint at a time, so the single scratch
// instance is never aliased.
func newDenseBuilder(e *Engine) *denseBuilder {
	b := e.scratch
	if b == nil {
		b = &denseBuilder{}
		e.scratch = b
	}
	b.e = e
	b.tab = e.Summaries.tab
	b.entries = b.entries[:0]
	b.gate = intern.None
	b.inGate = false
	b.includes = b.includes[:0]
	b.heapReads = b.heapReads[:0]
	b.heapWrites = b.heapWrites[:0]
	b.pushes = b.pushes[:0]
	b.lastRef = ""
	return b
}

// mid resolves a method ref to its dense ID through a one-entry memo.
func (b *denseBuilder) mid(ref string) (uint32, bool) {
	if ref != b.lastRef {
		b.lastRef = ref
		b.lastID, b.lastOK = b.e.idx.MethodID(ref)
	}
	return b.lastID, b.lastOK
}

func (b *denseBuilder) include(m *ir.Method, idx int) {
	id, ok := b.mid(m.Ref())
	if !ok {
		return // unindexable method: cannot occur for indexed programs
	}
	ci := cInclude{stmt: b.e.idx.StmtID(id, idx), source: intern.None, sink: intern.None}
	if source, sink := b.e.sumTags(m, idx); source != "" || sink != "" {
		if source != "" {
			ci.source = b.tab.Intern(source)
		}
		if sink != "" {
			ci.sink = b.tab.Intern(sink)
		}
	}
	b.includes = append(b.includes, ci)
}

func (b *denseBuilder) heapRead(loc string) {
	b.heapReads = append(b.heapReads, b.tab.Intern(loc))
}

func (b *denseBuilder) heapWrite(loc string) {
	b.heapWrites = append(b.heapWrites, b.tab.Intern(loc))
}

func (b *denseBuilder) push(method string, reg int) {
	id, ok := b.mid(method)
	if !ok {
		return
	}
	b.pushes = append(b.pushes, cPush{method: id, reg: int32(reg)})
}

func (b *denseBuilder) pushHeap(loc string) {
	b.pushes = append(b.pushes, cPush{heap: true, loc: b.tab.Intern(loc)})
}

// flush copies the active buffers out into a finished entry under the given
// gate (exact-size slices, so cached summaries carry no spare capacity) and
// resets them. Empty entries — including empty gated groups — are dropped.
func (b *denseBuilder) flush(gate uint32) {
	if len(b.includes) == 0 && len(b.heapReads) == 0 &&
		len(b.heapWrites) == 0 && len(b.pushes) == 0 {
		return
	}
	en := cEntry{gate: gate}
	if len(b.includes) > 0 {
		en.includes = takeSlab(&b.incSlab, b.includes)
		b.includes = b.includes[:0]
	}
	if len(b.heapReads) > 0 {
		en.heapReads = takeSlab(&b.u32Slab, b.heapReads)
		b.heapReads = b.heapReads[:0]
	}
	if len(b.heapWrites) > 0 {
		en.heapWrites = takeSlab(&b.u32Slab, b.heapWrites)
		b.heapWrites = b.heapWrites[:0]
	}
	if len(b.pushes) > 0 {
		en.pushes = takeSlab(&b.pushSlab, b.pushes)
		b.pushes = b.pushes[:0]
	}
	b.entries = append(b.entries, en)
}

func (b *denseBuilder) begin(gate string) {
	b.flush(intern.None)
	b.inGate = true
	b.gate = gateUnresolved
	if id, ok := b.e.idx.MethodID(gate); ok {
		b.gate = id
	}
}

func (b *denseBuilder) end() {
	b.flush(b.gate)
	b.inGate = false
	b.gate = intern.None
}

// emptyCSummary is the shared no-effect summary: most (method, register)
// pairs a fixpoint probes have none, so they all intern to one value.
var emptyCSummary = &cSummary{}

func (b *denseBuilder) done() *cSummary {
	b.flush(intern.None)
	if len(b.entries) == 0 {
		return emptyCSummary
	}
	b.sumSlab = append(b.sumSlab, cSummary{entries: takeSlab(&b.entSlab, b.entries)})
	b.entries = b.entries[:0]
	return &b.sumSlab[len(b.sumSlab)-1]
}
