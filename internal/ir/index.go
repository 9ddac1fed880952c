package ir

import (
	"sort"

	"extractocol/internal/intern"
)

// Index is the per-program dense addressing layer behind the analysis hot
// path: every method gets a dense uint32 ID in program order, and every
// statement and register slot gets a dense ID derived from per-method base
// offsets. Statement sets, taint universes and worklist dedup then become
// intern.Bits operations instead of map[string]bool hashing. The class
// hierarchy is tabulated here too, so resolving CHA and interface dispatch
// at a call site is a lookup, not a whole-program scan.
//
// Concurrency contract: an Index is built once per program (NewIndex,
// called before the parallel analysis phases start — callgraph.Build does
// it) and is strictly read-only afterwards, so any number of worker
// goroutines may query it without synchronization. The IR itself must not
// be mutated while an Index over it is live; programs that are rewritten
// (obfuscation) are re-indexed by the next analysis run.
type Index struct {
	methods []*Method // method ID -> body, program order
	ids     map[string]uint32
	// stmtBase and regBase have len(methods)+1 entries; method id owns the
	// dense statement range [stmtBase[id], stmtBase[id+1]) and register
	// range [regBase[id], regBase[id+1]).
	stmtBase []uint32
	regBase  []uint32
	sorted   []uint32 // method IDs ordered by Ref, for deterministic walks

	// Class hierarchy tables for CHA and interface dispatch, name-keyed
	// like the IR's own superclass and interface references.
	subs  map[string][]string // superclass name -> transitive subclasses
	impls map[string][]string // interface name -> implementing classes
}

// NewIndex builds the dense index over every method of p, in program
// order (all classes, library included, so any resolvable ref maps).
func NewIndex(p *Program) *Index {
	x := &Index{ids: map[string]uint32{}}
	classes := p.Classes()
	for _, c := range classes {
		for _, m := range c.Methods {
			x.ids[m.Ref()] = uint32(len(x.methods))
			x.methods = append(x.methods, m)
		}
	}
	x.stmtBase = make([]uint32, len(x.methods)+1)
	x.regBase = make([]uint32, len(x.methods)+1)
	for i, m := range x.methods {
		x.stmtBase[i+1] = x.stmtBase[i] + uint32(len(m.Instrs))
		x.regBase[i+1] = x.regBase[i] + uint32(m.Registers)
	}
	x.sorted = make([]uint32, len(x.methods))
	for i := range x.sorted {
		x.sorted[i] = uint32(i)
	}
	sort.Slice(x.sorted, func(i, j int) bool {
		return x.methods[x.sorted[i]].Ref() < x.methods[x.sorted[j]].Ref()
	})
	x.buildHierarchy(p, classes)
	return x
}

// buildHierarchy fills the subclass and implementer tables in one pass:
// each class walks its own superclass chain once, joining the subclass
// list of every ancestor name (in-program or not) and the implementer list
// of every interface declared along the way. The walk is bounded by the
// class count, so a cyclic chain in a program that skipped Validate still
// terminates (its lists are then unspecified).
func (x *Index) buildHierarchy(p *Program, classes []*Class) {
	x.subs = map[string][]string{}
	x.impls = map[string][]string{}
	for _, c := range classes {
		cur := c
		for step := 0; cur != nil && step < len(classes); step++ {
			for _, iface := range cur.Interfaces {
				// c's entries are appended contiguously, so checking the
				// tail dedups an interface declared at several levels.
				if l := x.impls[iface]; len(l) == 0 || l[len(l)-1] != c.Name {
					x.impls[iface] = append(l, c.Name)
				}
			}
			if cur.Super == "" {
				break
			}
			x.subs[cur.Super] = append(x.subs[cur.Super], c.Name)
			cur = p.classes[cur.Super]
		}
	}
	for _, l := range x.subs {
		sort.Strings(l)
	}
	for _, l := range x.impls {
		sort.Strings(l)
	}
}

// Subclasses returns the names of all classes that have cls on their
// superclass chain (not including cls itself), sorted. cls need not be a
// class of the program: a library superclass lists its app subclasses.
// The slice is shared; callers must treat it as read-only.
func (x *Index) Subclasses(cls string) []string { return x.subs[cls] }

// Implementers returns the names of classes declaring interface iface,
// directly or through a superclass, sorted. The slice is shared; callers
// must treat it as read-only.
func (x *Index) Implementers(iface string) []string { return x.impls[iface] }

// NumMethods returns the number of indexed methods.
func (x *Index) NumMethods() int { return len(x.methods) }

// NumStmts returns the total number of dense statement IDs.
func (x *Index) NumStmts() int { return int(x.stmtBase[len(x.methods)]) }

// NumRegSlots returns the total number of dense register slots.
func (x *Index) NumRegSlots() int { return int(x.regBase[len(x.methods)]) }

// MethodID resolves a fully qualified ref to its dense ID.
func (x *Index) MethodID(ref string) (uint32, bool) {
	id, ok := x.ids[ref]
	return id, ok
}

// MethodAt returns the method body for a dense ID.
func (x *Index) MethodAt(id uint32) *Method { return x.methods[id] }

// StmtID returns the dense statement ID of instruction idx in method id.
func (x *Index) StmtID(id uint32, idx int) uint32 {
	return x.stmtBase[id] + uint32(idx)
}

// StmtOf resolves a ref + instruction index to a dense statement ID.
func (x *Index) StmtOf(ref string, idx int) (uint32, bool) {
	id, ok := x.ids[ref]
	if !ok {
		return 0, false
	}
	return x.stmtBase[id] + uint32(idx), true
}

// StmtAt resolves a dense statement ID back to its method and instruction
// index.
func (x *Index) StmtAt(stmt uint32) (*Method, int) {
	// First method whose range ends beyond stmt; empty methods share their
	// successor's base and are skipped naturally.
	i := sort.Search(len(x.methods), func(i int) bool { return x.stmtBase[i+1] > stmt })
	return x.methods[i], int(stmt - x.stmtBase[i])
}

// RegSlot returns the dense register slot of register reg in method id —
// the worklist dedup address of a local taint fact.
func (x *Index) RegSlot(id uint32, reg int) uint32 {
	return x.regBase[id] + uint32(reg)
}

// EachSorted walks every method in Ref order (the order the slicer
// enumerates jobs in); f returning false stops the walk.
func (x *Index) EachSorted(f func(id uint32, m *Method) bool) {
	for _, id := range x.sorted {
		if !f(id, x.methods[id]) {
			return
		}
	}
}

// EachStmt walks a dense statement set in increasing statement order —
// method by method in program order, instruction order within a method —
// resolving each member to its body with an O(1) amortized cursor instead
// of a per-statement binary search. f returning false stops the walk.
func (x *Index) EachStmt(b *intern.Bits, f func(m *Method, id uint32, idx int) bool) {
	mi := 0
	b.Each(func(s uint32) bool {
		for x.stmtBase[mi+1] <= s {
			mi++
		}
		return f(x.methods[mi], uint32(mi), int(s-x.stmtBase[mi]))
	})
}
