package sigbuild

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"extractocol/internal/budget"
	"extractocol/internal/callgraph"
	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/siglang"
	"extractocol/internal/taint"
)

// evaluator interprets slice statements abstractly. One evaluator serves a
// single transaction; its shared state is the abstract heap, the captured
// request snapshot and the response access tree.
type evaluator struct {
	prog   *ir.Program
	idx    *ir.Index    // dense program index the filter sets live over
	filter *intern.Bits // dense statement IDs to interpret
	fmeths *intern.Bits // dense method IDs contributing filtered statements

	dp taint.StmtID // the transaction's demarcation point

	heap map[string]aval // heap location -> abstract value

	req     *aobj      // merged request snapshot at the DP
	resp    *respState // the transaction's response
	respSec map[string]*respState

	active []uint32 // recursion guard: IDs of the methods being interpreted, outermost first

	nextAlloc int // allocation-site counter for object identity

	// stats counts methods abstractly interpreted; owned by the
	// goroutine running this evaluator. Nil disables counting. methods is
	// the same count kept per-evaluator for the BuildInfo provenance.
	stats   *obs.Shard
	methods int

	// cg supplies the memoized per-method register types and control-flow
	// plans and each invoke's model entry; BuildTraced sets it before
	// interpreting any method.
	cg *callgraph.Graph

	// ck bounds the interpretation (one Step per instruction); truncated
	// latches the budget error that stopped it, after which every
	// evalMethod call returns immediately so the evaluator unwinds fast.
	ck        *budget.Checker
	truncated *budget.Exceeded
}

// filteredMethod reports whether ref contributes filtered statements.
func (ev *evaluator) filteredMethod(ref string) bool {
	id, ok := ev.idx.MethodID(ref)
	return ok && ev.fmeths.Has(id)
}

const maxDepth = 48

func newEvaluator(prog *ir.Program, dp taint.StmtID, filter *intern.Bits, idx *ir.Index) *evaluator {
	ev := &evaluator{
		prog: prog, idx: idx, filter: filter, dp: dp,
		fmeths:  &intern.Bits{},
		heap:    map[string]aval{},
		respSec: map[string]*respState{},
	}
	idx.EachStmt(filter, func(_ *ir.Method, mid uint32, _ int) bool {
		ev.fmeths.Add(mid)
		return true
	})
	ev.resp = &respState{
		dpID:         dp.Method + "@" + strconv.Itoa(dp.Index),
		root:         &siglang.Obj{},
		writeOrigins: map[string]string{},
	}
	return ev
}

// evalMethod interprets m with the given argument values and returns the
// merged return value. Blocks are visited in reverse post-order; loop
// back-edge environments are not re-propagated — loop-variant string
// accumulation is widened in place via repetition markers (see evalAppend).
// Block 0 runs on the caller's objects, as Java's callee would; only a
// block entered from a fork works on copies (DESIGN.md "Where object state
// is copied").
func (ev *evaluator) evalMethod(m *ir.Method, args []aval) aval {
	if m == nil || len(m.Instrs) == 0 {
		return unknownVal(siglang.VAny, "")
	}
	if ev.truncated != nil {
		return unknownVal(siglang.VAny, "budget")
	}
	// One ref resolution per method body; the recursion guard, the plan,
	// the per-instruction filter probe and the model entries are then
	// dense-ID reads. Every method a caller passes is in the index.
	mid, ok := ev.idx.MethodID(m.Ref())
	if !ok {
		return unknownVal(siglang.VAny, "")
	}
	if slices.Contains(ev.active, mid) || len(ev.active) > maxDepth {
		return unknownVal(siglang.VAny, "recursion")
	}
	ev.stats.Add(obs.CtrSigbuildMethods, 1)
	ev.methods++
	ev.active = append(ev.active, mid)
	defer func() { ev.active = ev.active[:len(ev.active)-1] }()

	plan := ev.cg.PlanOf(mid)
	regs := max(m.Registers, m.NumParamRegs())
	entry := make(env, regs)
	for i := 0; i < m.NumParamRegs() && i < len(args); i++ {
		entry[i] = args[i]
	}
	// Untyped defaults for missing arguments.
	for i := len(args); i < m.NumParamRegs(); i++ {
		entry[i] = unknownVal(siglang.VAny, "arg")
	}

	outs := make([]env, len(plan.Blocks)) // block ID -> environment at its end; nil until run
	var ret aval
	hasRet := false
	var exit env    // the returning block's environment, or the join of several
	forked := false // some block started from a copy of its predecessor's state

	for _, bid := range plan.RPO {
		b := plan.Blocks[bid]
		loop := plan.LoopOf[bid]
		var in env
		if bid == 0 {
			in = entry
		}
		for _, p := range b.Preds {
			po := outs[p]
			if po == nil {
				continue
			}
			if loop >= 0 {
				// Inside a loop, object state is shared rather than forked
				// so latch mutations stay visible at the loop exit; the
				// widening in evalAppend supplies the rep{} semantics.
				in = mergeEnvShared(in, po)
			} else {
				in = mergeEnv(in, po)
				forked = true
			}
		}
		if in == nil {
			in = make(env, regs)
		}
		returned := false
		for idx := b.Start; idx < b.End; idx++ {
			if err := ev.ck.Step(); err != nil {
				ev.truncated = ev.ck.Exceeded()
				return unknownVal(siglang.VAny, "budget")
			}
			instr := &m.Instrs[idx]
			stmt := ev.idx.StmtID(mid, idx)
			if instr.Op == ir.OpReturn {
				returned = true
				if instr.A != ir.NoReg {
					v := in.get(instr.A)
					if hasRet {
						ret = mergeVals(ret, v)
					} else {
						ret, hasRet = v, true
					}
				}
				continue
			}
			if !ev.filter.Has(stmt) {
				// Calls still get followed when they lead to methods that
				// carry slice statements (the demarcation point may live
				// in a callee even when the call itself moves no tainted
				// data).
				if instr.Op == ir.OpInvoke && ev.leadsToFilter(m, instr, ev.cg.ModelAt(stmt)) {
					ev.evalInstr(m, stmt, idx, instr, in, loop)
				}
				continue
			}
			ev.evalInstr(m, stmt, idx, instr, in, loop)
		}
		outs[bid] = in
		if returned {
			if exit == nil {
				exit = in // a returning block has no successor to share it with
			} else {
				exit = mergeEnv(exit, in)
			}
		}
	}

	// Sync mutations of caller-owned argument objects back into the
	// caller's object graph: per-branch copies made inside this method are
	// matched by allocation site. Without a fork every write went to the
	// caller's objects themselves.
	if forked {
		syncBack(args, exit)
	}

	if !hasRet {
		return unknownVal(siglang.VAny, "")
	}
	return ret
}

// syncBack copies the exit-time state of objects the caller passed in over
// the caller's originals, so mutations performed on branch-local copies
// remain visible after the call returns. The copied state still refers to
// the callee's copies of the caller's sub-objects, so those references are
// pointed back at the originals, matched by allocation site: a write the
// caller later makes through its own register then shows wherever the
// object is held, as it would in Java.
func syncBack(args []aval, exit env) {
	if exit == nil {
		return
	}
	byAlloc := map[int]*aobj{}
	seen := map[*aobj]bool{}
	var collect func(v *aval)
	collect = func(v *aval) {
		o := v.obj
		if o == nil || o.shared() || o.allocID == 0 || seen[o] {
			return
		}
		seen[o] = true
		byAlloc[o.allocID] = o
		o.refs(collect)
	}
	for i := range args {
		collect(&args[i])
	}
	if len(byAlloc) == 0 {
		return
	}
	applied := map[int]bool{}
	visited := map[*aobj]bool{}
	var apply func(v *aval)
	apply = func(v *aval) {
		o := v.obj
		if o == nil || o.shared() || visited[o] {
			return
		}
		visited[o] = true
		if orig, ok := byAlloc[o.allocID]; ok && orig != o && !applied[o.allocID] {
			applied[o.allocID] = true
			*orig = *o
		}
		o.refs(apply)
	}
	for _, v := range exit {
		apply(&v)
	}
	redirected := map[*aobj]bool{}
	var redirect func(v *aval)
	redirect = func(v *aval) {
		o := v.obj
		if o == nil || o.shared() {
			return
		}
		if orig, ok := byAlloc[o.allocID]; ok {
			v.obj, o = orig, orig
		}
		if redirected[o] {
			return
		}
		redirected[o] = true
		o.refs(redirect)
	}
	for _, o := range byAlloc {
		redirect(&aval{obj: o})
	}
}

// refs calls f on each object reference o holds that syncBack follows, and
// keeps the object f leaves in it.
func (o *aobj) refs(f func(v *aval)) {
	for _, p := range [...]**aobj{&o.body, &o.request} {
		if *p != nil {
			v := aval{obj: *p}
			f(&v)
			*p = v.obj
		}
	}
	for i := range o.elems {
		f(&o.elems[i])
	}
	for k, pv := range o.pairs {
		was := pv.obj
		if f(&pv); pv.obj != was {
			o.pairs[k] = pv
		}
	}
}

// evalInstr applies the semantics of instruction idx of m, dense statement
// stmt, to the environment.
func (ev *evaluator) evalInstr(m *ir.Method, stmt uint32, idx int, in *ir.Instr, en env, loop int) {
	switch in.Op {
	case ir.OpConstStr:
		en.set(in.Dst, constStr(in.Str))
	case ir.OpConstInt:
		en.set(in.Dst, aval{sig: siglang.Num(strconv.FormatInt(in.Int, 10))})
	case ir.OpConstNull:
		en.set(in.Dst, aval{sig: siglang.Str("")})
	case ir.OpMove:
		en.set(in.Dst, en.get(in.A))
	case ir.OpBinop:
		en.set(in.Dst, evalBinop(in.Sym, en.get(in.A), en.get(in.B)))
	case ir.OpNew:
		en.set(in.Dst, ev.newObject(in.Sym))
	case ir.OpFieldGet:
		en.set(in.Dst, ev.fieldGet(m, in, en))
	case ir.OpFieldPut:
		ev.fieldPut(m, in, en)
	case ir.OpStaticGet:
		loc := "s:" + in.Sym
		if v, ok := ev.heap[loc]; ok {
			en.set(in.Dst, cloneVal(v, map[*aobj]*aobj{}).withLoc(loc))
		} else {
			en.set(in.Dst, unknownVal(ev.staticType(in.Sym), loc).withLoc(loc))
		}
	case ir.OpStaticPut:
		loc := "s:" + in.Sym
		v := en.get(in.B)
		ev.recordWriteOrigin(loc, v)
		ev.heapWrite(loc, v)
	case ir.OpInvoke:
		ev.evalInvoke(m, stmt, idx, in, en, loop)
	}
}

func (ev *evaluator) staticType(sym string) siglang.VType {
	cls, fname, ok := ir.SplitRef(sym)
	if !ok {
		return siglang.VAny
	}
	if c := ev.prog.Class(cls); c != nil {
		if f := c.Field(fname); f != nil {
			return typeToVType(f.Type)
		}
	}
	return siglang.VAny
}

// newObject creates the abstract object for an allocation site.
func (ev *evaluator) newObject(class string) aval {
	ev.nextAlloc++
	o := &aobj{class: class, allocID: ev.nextAlloc}
	switch {
	case strings.Contains(class, "StringBuilder"), strings.Contains(class, "StringBuffer"):
		o.kind = oBuilder
		o.buf = siglang.Str("")
	case ev.prog.Class(class) != nil && !ev.prog.Class(class).Library:
		o.kind = oTyped // fieldPut makes its field map on the first write
	default:
		o.kind = oOpaque
	}
	return aval{obj: o}
}

func (ev *evaluator) heapLocFor(m *ir.Method, in *ir.Instr, en env) string {
	base := m.Class.Name
	if v := en.get(in.A); v.obj != nil && v.obj.class != "" && ev.prog.Class(v.obj.class) != nil {
		base = v.obj.class
	} else if m.Class != nil {
		// Fall back to the owner of a same-named field on this class
		// hierarchy; this matches taint.Engine's location naming.
		if c := ev.fieldOwner(m.Class.Name, in.Sym); c != "" {
			base = c
		}
	}
	return "f:" + base + "." + in.Sym
}

func (ev *evaluator) fieldOwner(cls, field string) string {
	for c := ev.prog.Class(cls); c != nil; c = ev.prog.Class(c.Super) {
		if c.Field(field) != nil {
			return c.Name
		}
		if c.Super == "" {
			break
		}
	}
	return ""
}

func (ev *evaluator) fieldGet(m *ir.Method, in *ir.Instr, en env) aval {
	base := en.get(in.A)
	// Response-bound typed object (gson): field access reads the tree.
	if base.obj != nil && base.obj.kind == oTyped && base.obj.respBound {
		return ev.typedRespField(base.obj, in.Sym)
	}
	// App object with locally tracked fields.
	if base.obj != nil && base.obj.pairs != nil {
		if v, ok := base.obj.pairs[in.Sym]; ok {
			return v
		}
	}
	loc := ev.heapLocFor(m, in, en)
	if v, ok := ev.heap[loc]; ok {
		return cloneVal(v, map[*aobj]*aobj{}).withLoc(loc)
	}
	t := siglang.VAny
	if owner := ev.fieldOwner(m.Class.Name, in.Sym); owner != "" {
		if f := ev.prog.Class(owner).Field(in.Sym); f != nil {
			t = typeToVType(f.Type)
		}
	}
	return unknownVal(t, loc).withLoc(loc)
}

func (ev *evaluator) fieldPut(m *ir.Method, in *ir.Instr, en env) {
	base := en.get(in.A)
	v := en.get(in.B)
	if base.obj != nil && base.obj.kind == oTyped {
		if base.obj.pairs == nil {
			base.obj.pairs = map[string]aval{}
		}
		if _, seen := base.obj.pairs[in.Sym]; !seen {
			base.obj.order = append(base.obj.order, in.Sym)
		}
		base.obj.pairs[in.Sym] = v
	}
	loc := ev.heapLocFor(m, in, en)
	ev.recordWriteOrigin(loc, v)
	ev.heapWrite(loc, v)
}

// heapWrite freezes a value into the abstract heap: the stored state is a
// snapshot, merged with any previous writes to the same location.
func (ev *evaluator) heapWrite(loc string, v aval) {
	frozen := cloneVal(v, map[*aobj]*aobj{})
	if old, ok := ev.heap[loc]; ok {
		ev.heap[loc] = mergeVals(old, frozen)
	} else {
		ev.heap[loc] = frozen
	}
}

// recordWriteOrigin notes that a response-derived value was persisted to a
// heap location (the source of inter-transaction dependencies).
func (ev *evaluator) recordWriteOrigin(loc string, v aval) {
	if v.fromResp != nil {
		v.fromResp.writeOrigins[loc] = v.respPath
	} else if v.obj != nil && v.obj.resp != nil {
		v.obj.resp.writeOrigins[loc] = v.obj.respPath
	}
}

func evalBinop(op string, a, b aval) aval {
	as, aok := a.constString()
	bs, bok := b.constString()
	if aok && bok {
		ai, errA := strconv.ParseInt(as, 10, 64)
		bi, errB := strconv.ParseInt(bs, 10, 64)
		if errA == nil && errB == nil {
			var r int64
			switch op {
			case "+":
				r = ai + bi
			case "-":
				r = ai - bi
			case "*":
				r = ai * bi
			default:
				return aval{sig: siglang.AnyInt(), locs: unionSet(a.locs, b.locs)}
			}
			return aval{sig: siglang.Num(strconv.FormatInt(r, 10))}
		}
	}
	return aval{sig: siglang.AnyInt(), locs: unionSet(a.locs, b.locs)}
}

// deps extracts the provenance labels of a value: heap/static/db/resource
// locations plus response-tree origins ("dp:<site>:<path>").
func deps(v aval) map[string]bool {
	out := map[string]bool{}
	for l := range v.locs {
		out[l] = true
	}
	if v.fromResp != nil {
		out["dp:"+v.fromResp.dpID+":"+v.respPath] = true
	}
	if v.obj != nil {
		if v.obj.resp != nil {
			out["dp:"+v.obj.resp.dpID+":"+v.obj.respPath] = true
		}
		// Content-level provenance accumulated on the object (builder
		// appends, entity payloads).
		for l := range v.obj.uriDeps {
			out[l] = true
		}
		for l := range v.obj.bodyDeps {
			out[l] = true
		}
	}
	return out
}

func addDeps(dst map[string]bool, v aval) {
	for d := range deps(v) {
		dst[d] = true
	}
}

// encodeConst applies URL encoding to constant values at analysis time so
// URLEncoder.encode on a literal keeps its literal signature.
func encodeConst(v aval) aval {
	if s, ok := v.constString(); ok {
		return aval{sig: siglang.Str(url.QueryEscape(s)), locs: v.locs}
	}
	out := v
	if _, isUnknown := v.sigOf().(*siglang.Unknown); !isUnknown {
		out.sig = siglang.AnyString()
		out.obj = nil
	}
	return out
}

// respNodeVal wraps a response-tree object node as a value.
func respNodeVal(rs *respState, node *siglang.Obj, path string) aval {
	return aval{obj: &aobj{kind: oRespNode, resp: rs, node: node, respPath: path},
		fromResp: rs, respPath: path}
}

func joinPath(base, key string) string {
	if base == "" {
		return key
	}
	return base + "." + key
}

func fmtDP(s taint.StmtID) string {
	return fmt.Sprintf("%s@%d", s.Method, s.Index)
}
