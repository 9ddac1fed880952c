package sigbuild

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"extractocol/internal/budget"
	"extractocol/internal/callgraph"
	"extractocol/internal/cfg"
	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
	"extractocol/internal/siglang"
	"extractocol/internal/taint"
)

// evaluator interprets slice statements abstractly. One evaluator serves a
// single transaction; its shared state is the abstract heap, the captured
// request snapshot and the response access tree.
type evaluator struct {
	prog   *ir.Program
	model  *semmodel.Model
	idx    *ir.Index    // dense program index the filter sets live over
	filter *intern.Bits // dense statement IDs to interpret
	fmeths *intern.Bits // dense method IDs contributing filtered statements

	dp      taint.StmtID // the transaction's demarcation point
	dpModel *semmodel.Method

	heap map[string]aval // heap location -> abstract value

	req     *aobj      // merged request snapshot at the DP
	resp    *respState // the transaction's response
	respSec map[string]*respState

	active map[string]bool // recursion guard
	depth  int

	nextAlloc int // allocation-site counter for object identity

	// stats counts methods abstractly interpreted; owned by the
	// goroutine running this evaluator. Nil disables counting. methods is
	// the same count kept per-evaluator for the BuildInfo provenance.
	stats   *obs.Shard
	methods int

	// cg, when non-nil, supplies memoized per-method register types
	// (BuildObs sets it); nil falls back to direct inference.
	cg *callgraph.Graph

	// ck bounds the interpretation (one Step per instruction); truncated
	// latches the budget error that stopped it, after which every
	// evalMethod call returns immediately so the evaluator unwinds fast.
	ck        *budget.Checker
	truncated *budget.Exceeded
}

// types returns m's register types, via the call graph's shared memoized
// inference when available.
func (ev *evaluator) types(m *ir.Method) []string {
	if ev.cg != nil {
		return ev.cg.Types(m)
	}
	return callgraph.InferTypes(ev.prog, m)
}

// filteredMethod reports whether ref contributes filtered statements.
func (ev *evaluator) filteredMethod(ref string) bool {
	id, ok := ev.idx.MethodID(ref)
	return ok && ev.fmeths.Has(id)
}

const maxDepth = 48

func newEvaluator(prog *ir.Program, model *semmodel.Model, dp taint.StmtID,
	dpm *semmodel.Method, filter *intern.Bits, idx *ir.Index) *evaluator {

	ev := &evaluator{
		prog: prog, model: model, idx: idx, filter: filter, dp: dp, dpModel: dpm,
		fmeths:  &intern.Bits{},
		heap:    map[string]aval{},
		respSec: map[string]*respState{},
		active:  map[string]bool{},
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
func (ev *evaluator) evalMethod(m *ir.Method, args []aval) aval {
	if m == nil || len(m.Instrs) == 0 {
		return unknownVal(siglang.VAny, "")
	}
	if ev.truncated != nil {
		return unknownVal(siglang.VAny, "budget")
	}
	if ev.active[m.Ref()] || ev.depth > maxDepth {
		return unknownVal(siglang.VAny, "recursion")
	}
	ev.stats.Add(obs.CtrSigbuildMethods, 1)
	ev.methods++
	ev.active[m.Ref()] = true
	ev.depth++
	defer func() {
		delete(ev.active, m.Ref())
		ev.depth--
	}()

	g := cfg.Build(m)
	loopOf := map[int]int{} // block -> innermost loop header
	for _, l := range g.Loops() {
		for b := range l.Body {
			loopOf[b] = l.Header
		}
	}

	// One ref resolution per method body; the per-instruction filter probe
	// is then a dense bitset read.
	mid, midOK := ev.idx.MethodID(m.Ref())

	entry := env{}
	for i := 0; i < m.NumParamRegs() && i < len(args); i++ {
		entry[i] = args[i]
	}
	// Untyped defaults for missing arguments.
	for i := len(args); i < m.NumParamRegs(); i++ {
		entry[i] = unknownVal(siglang.VAny, "arg")
	}

	outs := map[int]env{}
	var ret aval
	hasRet := false
	var exit env

	for _, bid := range g.ReversePostOrder() {
		b := g.Blocks[bid]
		loop := -1
		if h, ok := loopOf[bid]; ok {
			loop = h
		}
		var in env
		if bid == 0 {
			in = entry.clone()
		}
		for _, p := range b.Preds {
			po, ok := outs[p]
			if !ok {
				continue
			}
			if loop >= 0 {
				// Inside a loop, object state is shared rather than forked
				// so latch mutations stay visible at the loop exit; the
				// widening in evalAppend supplies the rep{} semantics.
				in = mergeEnvShared(in, po)
			} else {
				in = mergeEnv(in, po)
			}
		}
		if in == nil {
			in = env{}
		}
		returned := false
		for idx := b.Start; idx < b.End; idx++ {
			if err := ev.ck.Step(); err != nil {
				ev.truncated = ev.ck.Exceeded()
				return unknownVal(siglang.VAny, "budget")
			}
			instr := &m.Instrs[idx]
			inFilter := midOK && ev.filter.Has(ev.idx.StmtID(mid, idx))
			if instr.Op == ir.OpReturn {
				returned = true
				if instr.A != ir.NoReg {
					v := in[instr.A]
					if hasRet {
						ret = mergeVals(ret, v)
					} else {
						ret, hasRet = v, true
					}
				}
				continue
			}
			if !inFilter {
				// Calls still get followed when they lead to methods that
				// carry slice statements (the demarcation point may live
				// in a callee even when the call itself moves no tainted
				// data).
				if instr.Op == ir.OpInvoke && ev.leadsToFilter(m, instr) {
					ev.evalInstr(m, idx, instr, in, loop)
				}
				continue
			}
			ev.evalInstr(m, idx, instr, in, loop)
		}
		outs[bid] = in
		if returned {
			exit = mergeEnv(exit, in)
		}
	}

	// Sync mutations of caller-owned argument objects back into the
	// caller's object graph: per-branch copies made inside this method are
	// matched by allocation site.
	syncBack(args, exit)

	if !hasRet {
		return unknownVal(siglang.VAny, "")
	}
	return ret
}

// syncBack copies the exit-time state of objects the caller passed in over
// the caller's originals, so mutations performed on branch-local copies
// remain visible after the call returns.
func syncBack(args []aval, exit env) {
	if exit == nil {
		return
	}
	byAlloc := map[int]*aobj{}
	seen := map[*aobj]bool{}
	var collect func(v aval)
	collect = func(v aval) {
		o := v.obj
		if o == nil || o.shared() || o.allocID == 0 || seen[o] {
			return
		}
		seen[o] = true
		byAlloc[o.allocID] = o
		if o.body != nil {
			collect(aval{obj: o.body})
		}
		if o.request != nil {
			collect(aval{obj: o.request})
		}
		for _, el := range o.elems {
			collect(el)
		}
		for _, pv := range o.pairs {
			collect(pv)
		}
		collect(o.key)
		collect(o.val)
	}
	for _, a := range args {
		collect(a)
	}
	if len(byAlloc) == 0 {
		return
	}
	applied := map[int]bool{}
	visited := map[*aobj]bool{}
	var apply func(v aval)
	apply = func(v aval) {
		o := v.obj
		if o == nil || o.shared() || visited[o] {
			return
		}
		visited[o] = true
		if orig, ok := byAlloc[o.allocID]; ok && orig != o && !applied[o.allocID] {
			applied[o.allocID] = true
			*orig = *o
		}
		if o.body != nil {
			apply(aval{obj: o.body})
		}
		if o.request != nil {
			apply(aval{obj: o.request})
		}
		for _, el := range o.elems {
			apply(el)
		}
		for _, pv := range o.pairs {
			apply(pv)
		}
		apply(o.key)
		apply(o.val)
	}
	for _, v := range exit {
		apply(v)
	}
}

// evalInstr applies one instruction's semantics to the environment.
func (ev *evaluator) evalInstr(m *ir.Method, idx int, in *ir.Instr, en env, loop int) {
	switch in.Op {
	case ir.OpConstStr:
		en[in.Dst] = constStr(in.Str)
	case ir.OpConstInt:
		en[in.Dst] = aval{sig: siglang.Num(strconv.FormatInt(in.Int, 10))}
	case ir.OpConstNull:
		en[in.Dst] = aval{sig: siglang.Str("")}
	case ir.OpMove:
		en[in.Dst] = en[in.A]
	case ir.OpBinop:
		en[in.Dst] = evalBinop(in.Sym, en[in.A], en[in.B])
	case ir.OpNew:
		en[in.Dst] = ev.newObject(in.Sym)
	case ir.OpFieldGet:
		en[in.Dst] = ev.fieldGet(m, in, en)
	case ir.OpFieldPut:
		ev.fieldPut(m, in, en)
	case ir.OpStaticGet:
		loc := "s:" + in.Sym
		if v, ok := ev.heap[loc]; ok {
			en[in.Dst] = cloneVal(v, map[*aobj]*aobj{}).withLoc(loc)
		} else {
			en[in.Dst] = unknownVal(ev.staticType(in.Sym), loc).withLoc(loc)
		}
	case ir.OpStaticPut:
		loc := "s:" + in.Sym
		v := en[in.B]
		ev.recordWriteOrigin(loc, v)
		ev.heapWrite(loc, v)
	case ir.OpInvoke:
		ev.evalInvoke(m, idx, in, en, loop)
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
		o.kind = oTyped
		o.pairs = map[string]aval{}
	default:
		o.kind = oOpaque
	}
	return aval{obj: o}
}

func (ev *evaluator) heapLocFor(m *ir.Method, in *ir.Instr, en env) string {
	base := m.Class.Name
	if v, ok := en[in.A]; ok && v.obj != nil && v.obj.class != "" && ev.prog.Class(v.obj.class) != nil {
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
	base := en[in.A]
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
	base := en[in.A]
	v := en[in.B]
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
