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
// at a call site is a lookup, not a whole-program scan, and so are the
// instructions mentioning each register slot, so a per-register scan
// visits only the instructions that can matter to it.
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
	rank     []uint32 // method ID -> position in sorted

	// Classes in program order; class k owns the method IDs
	// [classBase[k], classBase[k+1]) in declaration order, so a method name
	// resolves to an ID by scanning one class's methods.
	classes   []*Class
	classBase []uint32
	classIDs  map[string]uint32

	// Per-register mention lists: register slot s owns
	// ments[mentBase[s]:mentBase[s+1]], the ascending indexes of the
	// instructions that define or use it, each listed once.
	mentBase []uint32
	ments    []int32

	// Class hierarchy tables for CHA and interface dispatch, name-keyed
	// like the IR's own superclass and interface references.
	subs  map[string][]string // superclass name -> transitive subclasses
	impls map[string][]string // interface name -> implementing classes
}

// NewIndex builds the dense index over every method of p, in program
// order (all classes, library included, so any resolvable ref maps).
func NewIndex(p *Program) *Index {
	classes := p.Classes()
	x := &Index{ids: map[string]uint32{}, classes: classes,
		classBase: make([]uint32, len(classes)+1), classIDs: make(map[string]uint32, len(classes))}
	for k, c := range classes {
		x.classIDs[c.Name] = uint32(k)
		for _, m := range c.Methods {
			x.ids[m.Ref()] = uint32(len(x.methods))
			x.methods = append(x.methods, m)
		}
		x.classBase[k+1] = uint32(len(x.methods))
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
	x.rank = make([]uint32, len(x.methods))
	for pos, id := range x.sorted {
		x.rank[id] = uint32(pos)
	}
	x.buildMentions()
	x.buildHierarchy(p, classes)
	return x
}

// buildMentions fills the mention lists, one method at a time: a walk
// over the method's instructions records each (register, instruction)
// mention in instruction order and counts it, a prefix sum over the
// method's slots (continuing from the previous method's end) turns the
// counts into list bounds, and a stable placement fills the ascending
// lists. last[r] holds the latest instruction recorded for register r, so
// an instruction naming a register twice (binop r, r; move r, r; an invoke
// passing r twice) lists once. Operands outside a method's declared
// registers, which only an unvalidated program can hold, are skipped.
func (x *Index) buildMentions() {
	type mention struct{ reg, instr int32 }
	x.mentBase = make([]uint32, x.regBase[len(x.methods)]+1)
	x.ments = make([]int32, 0, x.stmtBase[len(x.methods)]*3/2)
	var (
		last []int32
		seen []mention
		next []uint32
	)
	for id, m := range x.methods {
		regs := m.Registers
		if cap(last) < regs {
			last, next = make([]int32, regs), make([]uint32, regs)
		}
		last, next = last[:regs], next[:regs]
		for r := range last {
			last[r] = -1
		}
		// bounds[r] is register r's list start, bounds[r+1] its count and
		// then its end.
		bounds := x.mentBase[x.regBase[id] : x.regBase[id+1]+1]
		seen = seen[:0]
		var i int32
		note := func(r int) {
			if r >= 0 && r < regs && last[r] != i {
				last[r] = i
				seen = append(seen, mention{int32(r), i})
				bounds[r+1]++
			}
		}
		for j := range m.Instrs {
			in := &m.Instrs[j]
			i = int32(j)
			// The defined register, then the operands EachUse reports.
			note(in.Def())
			switch in.Op {
			case OpMove, OpFieldGet, OpIfZ, OpIfNZ, OpReturn:
				note(in.A)
			case OpFieldPut, OpIfEq, OpIfNe, OpBinop:
				note(in.A)
				note(in.B)
			case OpStaticPut:
				note(in.B)
			case OpInvoke:
				for _, a := range in.Args {
					note(a)
				}
			}
		}
		for r := 0; r < regs; r++ {
			bounds[r+1] += bounds[r]
			next[r] = bounds[r]
		}
		x.ments = append(x.ments, make([]int32, len(seen))...)
		for _, mn := range seen {
			x.ments[next[mn.reg]] = mn.instr
			next[mn.reg]++
		}
	}
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

// RefRank returns the position of method id in Ref order, so callers can
// order method IDs by ref with integer comparisons.
func (x *Index) RefRank(id uint32) uint32 { return x.rank[id] }

// HasClass reports whether cls names a class of the program.
func (x *Index) HasClass(cls string) bool {
	_, ok := x.classIDs[cls]
	return ok
}

// OwnMethod is Class.Method in ID space: the ID of class cls's own first
// method named name.
func (x *Index) OwnMethod(cls, name string) (uint32, bool) {
	k, ok := x.classIDs[cls]
	if !ok {
		return 0, false
	}
	return x.ownMethod(k, name)
}

func (x *Index) ownMethod(k uint32, name string) (uint32, bool) {
	for j, m := range x.classes[k].Methods {
		if m.Name == name {
			return x.classBase[k] + uint32(j), true
		}
	}
	return 0, false
}

// ResolveMethod is Program.ResolveMethod in ID space: name looked up on
// class cls, then along its superclass chain. The walk is bounded by the
// class count, so an unvalidated cyclic chain still terminates.
func (x *Index) ResolveMethod(cls, name string) (uint32, bool) {
	k, ok := x.classIDs[cls]
	for step := 0; ok && step < len(x.classes); step++ {
		if id, found := x.ownMethod(k, name); found {
			return id, true
		}
		super := x.classes[k].Super
		if super == "" {
			break
		}
		k, ok = x.classIDs[super]
	}
	return 0, false
}

// Mentions returns the ascending indexes of the instructions of method id
// that define or use register reg, each listed once; nil for a register
// outside the method. A transfer scan for one register needs to visit only
// these. The slice is shared; callers must treat it as read-only.
func (x *Index) Mentions(id uint32, reg int) []int32 {
	if reg < 0 || reg >= x.methods[id].Registers {
		return nil
	}
	s := x.regBase[id] + uint32(reg)
	return x.ments[x.mentBase[s]:x.mentBase[s+1]:x.mentBase[s+1]]
}

// StmtID returns the dense statement ID of instruction idx in method id.
func (x *Index) StmtID(id uint32, idx int) uint32 {
	return x.stmtBase[id] + uint32(idx)
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
