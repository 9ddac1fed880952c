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
// The scans in backward.go and forward.go work in ir.Index space: a scan
// for (method, register) visits only the instructions that mention the
// register (Index.Mentions), and reads call edges and semantic-model
// entries from the call graph's ID-indexed tables. They emit effects
// through the sumEmitter interface. denseBuilder lowers them straight to
// compiled form — heap locations and tags interned through the cache's
// symbol table — so the hot worklist loop replays pure integer effects. The
// interface is also the seam the package tests use to replay the same
// scans through the pre-interning string/map reference implementation.
// Because effects replay in recorded order and recorded order equals the
// scan order of the direct implementation, a summarized engine produces
// byte-identical slices to the pre-summary engine, while every transaction
// after the first reuses the summaries instead of re-traversing shared
// callees.

// heapSite is one statement accessing a heap location: a writer (field/
// static put, reg = stored register) for backward propagation, or a reader
// (field/static get, reg = destination register) for forward propagation.
type heapSite struct {
	method uint32 // dense method ID
	index  int
	reg    int
}

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

// cEntry is one ordered group of effects: the summary's includes, heap
// reads, heap writes and pushes from the previous entry's end offsets up
// to this entry's. gate == intern.None applies always; otherwise the group
// applies only when the gate method is in the universe or the fact has
// hops > 0.
type cEntry struct {
	gate                               uint32
	incEnd, readEnd, writeEnd, pushEnd uint32
}

// cSummary is the full compiled transfer summary of one (method, register)
// query in one direction: its effects, kind by kind, partitioned into
// entries by offset.
type cSummary struct {
	entries  []cEntry
	includes []cInclude
	reads    []uint32
	writes   []uint32
	pushes   []cPush
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
// core.Analyze shares one across all slice jobs and the pairing flow
// checks — and is safe for concurrent use. The zero value is not usable;
// call NewSummaryCache.
//
// Summaries live in one table per direction, indexed by the dense register
// slot of their (method, register) query and sized when the first engine
// binds the cache to its program index. Reads are single atomic loads. An
// engine builds a missing summary in its own scratch buffers, then
// publishes it under mu into the cache-owned chunked slabs; a chunk that
// runs out of room is replaced, never regrown, so published summaries are
// never copied or moved.
type SummaryCache struct {
	tab *intern.SyncTable

	bound atomic.Pointer[ir.Index] // the index the tables are sized for

	mu   sync.Mutex // guards binding and the slabs
	sums [2][]atomic.Pointer[cSummary]

	incSlab  slab[cInclude]
	u32Slab  slab[uint32] // heap reads and writes share one slab
	pushSlab slab[cPush]
	entSlab  slab[cEntry]
	sumSlab  slab[cSummary]

	// Heap access index per direction, keyed by interned location ID.
	writers, readers atomic.Pointer[[][]cHeapSite]

	hits, misses atomic.Int64
}

// NewSummaryCache returns an empty cache.
func NewSummaryCache() *SummaryCache {
	return &SummaryCache{tab: &intern.SyncTable{}}
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

// bind sizes the summary tables for idx on first use. A cache serves one
// program: binding it to a second index is a caller bug, and silently
// replaying one program's summaries on another would corrupt every slice.
func (c *SummaryCache) bind(idx *ir.Index) {
	if c.bound.Load() == idx {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.bound.Load() {
	case idx:
	case nil:
		for d := range c.sums {
			c.sums[d] = make([]atomic.Pointer[cSummary], idx.NumRegSlots())
		}
		c.bound.Store(idx)
	default:
		panic("taint: SummaryCache shared across programs")
	}
}

// compiled returns the compiled summary of (method, reg) in direction dir,
// building and publishing it with e on first use.
func (e *Engine) compiled(dir direction, method uint32, reg int32) *cSummary {
	if int(reg) >= e.idx.MethodAt(method).Registers {
		// Only a caller's seed can name a register the method lacks; it has
		// no effects, and its slot would belong to the next method.
		return emptyCSummary
	}
	slot := &e.Summaries.sums[dir][e.idx.RegSlot(method, int(reg))]
	if s := slot.Load(); s != nil {
		e.nHits++
		return s
	}
	c := e.Summaries
	c.misses.Add(1)
	b := e.builder()
	if dir == dirBackward {
		e.scanBackward(b, method, int(reg))
	} else {
		e.scanForward(b, method, int(reg))
	}
	b.flush(intern.None)
	if len(b.entries) == 0 {
		slot.CompareAndSwap(nil, emptyCSummary)
		return slot.Load()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := slot.Load(); s != nil {
		return s // another engine published first; keep one canonical summary
	}
	s := c.sumSlab.add(cSummary{
		entries:  c.entSlab.take(b.entries),
		includes: c.incSlab.take(b.includes),
		reads:    c.u32Slab.take(b.reads),
		writes:   c.u32Slab.take(b.writes),
		pushes:   c.pushSlab.take(b.pushes),
	})
	slot.Store(s)
	return s
}

// emptyCSummary is the shared no-effect summary: most (method, register)
// pairs a fixpoint probes have none, so they all publish this one value.
var emptyCSummary = &cSummary{}

// heapSites returns the dense writer (backward) or reader (forward) index
// entry for an interned location, building the index on first use.
func (e *Engine) heapSites(dir direction, loc uint32) []cHeapSite {
	c := e.Summaries
	p := &c.readers
	if dir == dirBackward {
		p = &c.writers
	}
	ix := p.Load()
	if ix == nil {
		c.misses.Add(1)
		built := e.buildHeapIndex(dir == dirBackward)
		p.CompareAndSwap(nil, &built) // keep the first index published
		ix = p.Load()
	} else {
		e.nHits++
	}
	if int(loc) < len(*ix) {
		return (*ix)[loc]
	}
	return nil
}

// scanHeapSites scans every app method once, indexing heap accesses by
// location in program order (class insertion order, then method order, then
// instruction order — the order the direct implementation visited them).
func (e *Engine) scanHeapSites(writes bool) map[string][]heapSite {
	idx := map[string][]heapSite{}
	id := uint32(0)
	for _, cl := range e.Prog.Classes() {
		for _, m := range cl.Methods {
			mid := id
			id++
			if cl.Library {
				continue
			}
			for i := range m.Instrs {
				in := &m.Instrs[i]
				var loc string
				var reg int
				switch {
				case writes && in.Op == ir.OpFieldPut:
					loc, reg = e.heapLoc(mid, m, in), in.B
				case writes && in.Op == ir.OpStaticPut:
					loc, reg = "s:"+in.Sym, in.B
				case !writes && in.Op == ir.OpFieldGet:
					loc, reg = e.heapLoc(mid, m, in), in.Dst
				case !writes && in.Op == ir.OpStaticGet:
					loc, reg = "s:"+in.Sym, in.Dst
				default:
					continue
				}
				idx[loc] = append(idx[loc], heapSite{method: mid, index: i, reg: reg})
			}
		}
	}
	return idx
}

// buildHeapIndex builds the dense heap access index: locations interned in
// sorted order (so the symbol table's contents are deterministic), sites
// resolved to dense statement IDs with their per-location program order
// preserved, the whole indexed by location ID.
func (e *Engine) buildHeapIndex(writes bool) [][]cHeapSite {
	scan := e.scanHeapSites(writes)
	locs := make([]string, 0, len(scan))
	for l := range scan {
		locs = append(locs, l)
	}
	sort.Strings(locs)
	var ix [][]cHeapSite
	for _, l := range locs {
		sites := scan[l]
		cs := make([]cHeapSite, len(sites))
		for i, s := range sites {
			cs[i] = cHeapSite{method: s.method, stmt: e.idx.StmtID(s.method, s.index), reg: int32(s.reg)}
		}
		id := int(e.Summaries.tab.Intern(l))
		if id >= len(ix) {
			ix = append(ix, make([][]cHeapSite, id+1-len(ix))...)
		}
		ix[id] = cs
	}
	return ix
}

// sumEmitter receives transfer-summary effects in emission order. The scan
// logic in backward.go/forward.go is written against this interface;
// denseBuilder below produces the compiled form the engine replays, and the
// package tests implement it to build the string form the reference replay
// consumes from the same scans. Methods are dense IDs in the engine's
// program index.
//
// Gated groups are emitted as begin(gate) ... effects ... end(); an empty
// group (no effects between begin and end) is dropped, which mirrors the
// pre-interface builders' "only append non-empty gated entries" call sites.
type sumEmitter interface {
	// include adds statement idx of method to the slice, resolving modeled
	// source/sink tags at build time so replay is instruction-free.
	include(method uint32, idx int)
	// push emits a successor local fact (hops assigned at replay).
	push(method uint32, reg int)
	// pushHeap emits a successor heap fact.
	pushHeap(loc string)
	heapRead(loc string)
	heapWrite(loc string)
	// begin opens a universe-gated effect group; end closes it.
	begin(gate uint32)
	end()
}

// denseBuilder lowers effects straight to compiled form: heap locations and
// tags interned through the cache's symbol table, effects accumulated kind
// by kind with each entry recording its end offsets. The buffers are
// engine scratch, reused across summaries; publishing copies them into the
// cache's slabs.
type denseBuilder struct {
	e   *Engine
	tab *intern.SyncTable

	entries  []cEntry
	includes []cInclude
	reads    []uint32
	writes   []uint32
	pushes   []cPush
	gate     uint32 // gate of the open group; intern.None outside one
}

// builder returns the engine's scratch builder, reset for a new summary.
// Engines run one fixpoint at a time, so the single scratch instance is
// never aliased.
func (e *Engine) builder() *denseBuilder {
	b := e.scratch
	if b == nil {
		b = &denseBuilder{e: e}
		e.scratch = b
	}
	b.tab = e.Summaries.tab
	b.entries = b.entries[:0]
	b.includes = b.includes[:0]
	b.reads = b.reads[:0]
	b.writes = b.writes[:0]
	b.pushes = b.pushes[:0]
	b.gate = intern.None
	return b
}

func (b *denseBuilder) include(method uint32, idx int) {
	stmt := b.e.idx.StmtID(method, idx)
	ci := cInclude{stmt: stmt, source: intern.None, sink: intern.None}
	if mm := b.e.CG.ModelAt(stmt); mm != nil {
		if mm.Source != "" {
			ci.source = b.tab.Intern(mm.Source)
		}
		if mm.Sink != "" {
			ci.sink = b.tab.Intern(mm.Sink)
		}
	}
	b.includes = append(b.includes, ci)
}

func (b *denseBuilder) heapRead(loc string) {
	b.reads = append(b.reads, b.tab.Intern(loc))
}

func (b *denseBuilder) heapWrite(loc string) {
	b.writes = append(b.writes, b.tab.Intern(loc))
}

func (b *denseBuilder) push(method uint32, reg int) {
	b.pushes = append(b.pushes, cPush{method: method, reg: int32(reg)})
}

func (b *denseBuilder) pushHeap(loc string) {
	b.pushes = append(b.pushes, cPush{heap: true, loc: b.tab.Intern(loc)})
}

// flush closes the effects emitted since the previous entry into an entry
// under gate. Empty entries — including empty gated groups — are dropped.
func (b *denseBuilder) flush(gate uint32) {
	en := cEntry{gate: gate, incEnd: uint32(len(b.includes)), readEnd: uint32(len(b.reads)),
		writeEnd: uint32(len(b.writes)), pushEnd: uint32(len(b.pushes))}
	var prev cEntry
	if n := len(b.entries); n > 0 {
		prev = b.entries[n-1]
	}
	if en.incEnd == prev.incEnd && en.readEnd == prev.readEnd &&
		en.writeEnd == prev.writeEnd && en.pushEnd == prev.pushEnd {
		return
	}
	b.entries = append(b.entries, en)
}

func (b *denseBuilder) begin(gate uint32) {
	b.flush(intern.None)
	b.gate = gate
}

func (b *denseBuilder) end() {
	b.flush(b.gate)
	b.gate = intern.None
}

// slab is a cache-owned arena. Published regions are capacity-trimmed
// subslices of the current chunk, so later appends can never alias them; a
// chunk without room for the next region is abandoned to the regions
// already pointing into it and replaced by a fresh one, twice as large up
// to slabChunkMax, so no published element is ever copied.
type slab[T any] struct {
	chunk []T
}

const (
	slabChunkMin = 64
	slabChunkMax = 8192
)

func (s *slab[T]) room(n int) {
	if cap(s.chunk)-len(s.chunk) >= n {
		return
	}
	size := min(max(2*cap(s.chunk), slabChunkMin), slabChunkMax)
	s.chunk = make([]T, 0, max(size, n))
}

// take copies src into the slab and returns the stored region (nil for an
// empty src).
func (s *slab[T]) take(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	s.room(len(src))
	start := len(s.chunk)
	s.chunk = append(s.chunk, src...)
	return s.chunk[start:len(s.chunk):len(s.chunk)]
}

// add stores v in the slab and returns its address.
func (s *slab[T]) add(v T) *T {
	s.room(1)
	s.chunk = append(s.chunk, v)
	return &s.chunk[len(s.chunk)-1]
}
