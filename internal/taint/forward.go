package taint

import (
	"cmp"
	"slices"

	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/semmodel"
)

// Forward computes the response slice: all statements deriving data from
// register reg defined at statement origin (the demarcation point's
// response object, or an async callback's response parameter). Standard
// forward propagation rules apply; heap writes record response-originated
// objects for inter-transaction dependency analysis.
//
// Propagation rules live in scanForward below as transfer summaries; the
// worklist loop replays memoized summaries (see summary.go).
func (e *Engine) Forward(origin StmtID, reg int) *Result {
	res := e.newResult()
	w := newDenseWorklist(e.idx)
	res.AddStmt(origin.Method, origin.Index)
	if mid, ok := e.idx.MethodID(origin.Method); ok {
		w.pushLocal(e.idx, mid, int32(reg), 0)
	}
	e.run(w, res, dirForward, origin.Method)
	return res
}

// ForwardFacts runs forward propagation from a prepared set of local facts
// given as (method, register) pairs; the pairing analysis uses the dense
// form, ForwardDefs.
func (e *Engine) ForwardFacts(seeds map[StmtID]int) *Result {
	e.ensure()
	ss := make([]seed, 0, len(seeds))
	site := "flow-check"
	for s, reg := range seeds {
		if site == "flow-check" || s.Method < site {
			site = s.Method
		}
		if mid, ok := e.idx.MethodID(s.Method); ok {
			ss = append(ss, seed{rank: e.idx.RefRank(mid), method: mid, index: s.Index, reg: int32(reg)})
		}
	}
	return e.forwardSeeds(ss, site)
}

// ForwardDefs runs forward propagation seeded with the register each
// statement of stmts defines (a dense statement set over the engine's
// program index; statements that define nothing are skipped), the
// pairing flow check's shape. It returns the result and the seed count,
// and runs nothing when there is no seed (nil, 0).
func (e *Engine) ForwardDefs(stmts *intern.Bits) (*Result, int) {
	e.ensure()
	var ss []seed
	e.idx.EachStmt(stmts, func(m *ir.Method, mid uint32, i int) bool {
		if d := m.Instrs[i].Def(); d != ir.NoReg {
			ss = append(ss, seed{rank: e.idx.RefRank(mid), method: mid, index: i, reg: int32(d)})
		}
		return true
	})
	if len(ss) == 0 {
		return nil, 0
	}
	// The lexicographically first seed method names the fixpoint.
	site := e.idx.MethodAt(slices.MinFunc(ss, seedOrder).method).Ref()
	return e.forwardSeeds(ss, site), len(ss)
}

// seed is one forward seed fact in dense form; rank is its method's
// position in ref order.
type seed struct {
	rank, method uint32
	index        int
	reg          int32
}

// seedOrder orders seeds by (method ref, instruction index).
func seedOrder(a, b seed) int {
	return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.index, b.index))
}

// forwardSeeds runs forward propagation from seeds under the fixpoint name
// site. Seeds are pushed in (method ref, index) order, so the worklist —
// and with it every fixpoint observable, down to where a budget truncates —
// never depends on the order the caller collected them in. The order is
// deterministic for fault probes and diagnostics too.
func (e *Engine) forwardSeeds(seeds []seed, site string) *Result {
	res := e.newResult()
	w := newDenseWorklist(e.idx)
	slices.SortFunc(seeds, seedOrder)
	for _, s := range seeds {
		if s.index >= 0 && s.index < len(e.idx.MethodAt(s.method).Instrs) {
			res.stmts.Add(e.idx.StmtID(s.method, s.index))
		}
		w.pushLocal(e.idx, s.method, s.reg, 0)
	}
	e.run(w, res, dirForward, site)
	return res
}

// scanForward emits the forward transfer effects of (method, reg) — the
// effects of processing one forward fact for that register — into b.
// Every effect needs an instruction that uses reg, so the scan visits
// Index.Mentions instead of the whole method.
func (e *Engine) scanForward(b sumEmitter, mid uint32, reg int) {
	m := e.idx.MethodAt(mid)
	for _, i := range e.idx.Mentions(mid, reg) {
		in := &m.Instrs[i]
		uses := false
		in.EachUse(func(u int) {
			if u == reg {
				uses = true
			}
		})
		if !uses {
			continue
		}
		idx := int(i)
		switch in.Op {
		case ir.OpMove:
			b.include(mid, idx)
			b.push(mid, in.Dst)
		case ir.OpBinop:
			b.include(mid, idx)
			b.push(mid, in.Dst)
		case ir.OpFieldPut:
			if in.B == reg {
				loc := e.heapLoc(mid, m, in)
				b.include(mid, idx)
				b.heapWrite(loc)
				b.pushHeap(loc)
			}
		case ir.OpStaticPut:
			if in.B == reg {
				loc := "s:" + in.Sym
				b.include(mid, idx)
				b.heapWrite(loc)
				b.pushHeap(loc)
			}
		case ir.OpFieldGet:
			// Reading a field of a tainted object yields tainted data.
			b.include(mid, idx)
			b.push(mid, in.Dst)
		case ir.OpReturn:
			b.include(mid, idx)
			e.sumForwardToCallers(b, mid)
		case ir.OpInvoke:
			e.sumForwardInvoke(b, mid, m, idx, in, reg)
		}
	}
}

func (e *Engine) sumForwardInvoke(b sumEmitter, mid uint32, m *ir.Method, idx int, in *ir.Instr, reg int) {
	pushDst := func() {
		if in.Dst != ir.NoReg {
			b.push(mid, in.Dst)
		}
	}
	argPos := -1
	for p, a := range in.Args {
		if a == reg {
			argPos = p
			break
		}
	}
	if mm := e.modelAt(mid, idx); mm != nil {
		switch mm.Kind {
		case semmodel.KAppend:
			// Receiver accumulates; result aliases receiver.
			b.include(mid, idx)
			if len(in.Args) > 0 {
				b.push(mid, in.Args[0])
			}
			pushDst()
		case semmodel.KJSONPut, semmodel.KListAdd, semmodel.KMapPut, semmodel.KCVPut,
			semmodel.KHTTPSetEntity, semmodel.KHTTPAddHeader,
			semmodel.KOkURL, semmodel.KOkPost, semmodel.KOkHeader,
			semmodel.KStreamWrite, semmodel.KStreamWrap, semmodel.KMultipartAddPart,
			semmodel.KHTTPReqInit, semmodel.KStringEntityInit, semmodel.KFormEntityInit,
			semmodel.KNVPairInit, semmodel.KURLInit, semmodel.KSocketInit,
			semmodel.KStringBuilderInit:
			// Value flows into the receiver object.
			b.include(mid, idx)
			if argPos > 0 && len(in.Args) > 0 {
				b.push(mid, in.Args[0])
			}
			pushDst()
		case semmodel.KDBInsert, semmodel.KDBUpdate:
			b.include(mid, idx)
			for _, loc := range e.dbLocs(mid, m, idx, in, mm) {
				b.heapWrite(loc)
			}
		case semmodel.KMediaSetSource, semmodel.KFileWrite, semmodel.KUIDisplay:
			// Data consumption endpoint; the include carries the sink tag.
			b.include(mid, idx)
		case semmodel.KExecuteDP, semmodel.KEnqueueDP:
			// Tainted data feeding another request: recorded for
			// inter-transaction dependency analysis.
			b.include(mid, idx)
		case semmodel.KStringEquals, semmodel.KJSONArrLen:
			// Predicates/lengths: control data, not payload content.
			b.include(mid, idx)
		default:
			b.include(mid, idx)
			pushDst()
		}
		return
	}
	// Application callee: taint the matching parameter (universe-gated).
	edges := e.CG.CalleesAt(mid, idx)
	if len(edges) == 0 {
		b.include(mid, idx)
		pushDst()
		return
	}
	for _, edge := range edges {
		if pr := paramReg(e.idx.MethodAt(edge.Callee), argPos); pr != ir.NoReg {
			b.begin(edge.Callee)
			b.include(mid, idx)
			b.push(edge.Callee, pr)
			b.end()
		}
	}
}

// sumForwardToCallers propagates a tainted return value into each caller's
// destination register, and along synthetic async chains.
func (e *Engine) sumForwardToCallers(b sumEmitter, mid uint32) {
	for _, edge := range e.CG.Callees(mid) {
		if edge.Site == -1 && edge.Implicit {
			// doInBackground -> onPostExecute: return value becomes the
			// first parameter. Chain edges stay inside the task object, so
			// this push is not universe-gated (mirroring the direct rule).
			if pr := paramReg(e.idx.MethodAt(edge.Callee), 1); pr != ir.NoReg {
				b.push(edge.Callee, pr)
			}
		}
	}
	for _, edge := range e.CG.Callers(mid) {
		if edge.Site < 0 {
			continue
		}
		in := &e.idx.MethodAt(edge.Caller).Instrs[edge.Site]
		if in.Dst != ir.NoReg && !edge.Implicit {
			b.begin(edge.Caller)
			b.include(edge.Caller, int(edge.Site))
			b.push(edge.Caller, in.Dst)
			b.end()
		}
	}
}
