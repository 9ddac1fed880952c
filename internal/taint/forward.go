package taint

import (
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
// given as (method, register) pairs; used by the pairing analysis, which
// taints URI slices and checks reachability into response slices.
func (e *Engine) ForwardFacts(seeds map[StmtID]int) *Result {
	res := e.newResult()
	w := newDenseWorklist(e.idx)
	// Seeds are pushed in sorted (method, index) order so the worklist —
	// and with it every fixpoint observable — never depends on map
	// iteration order. The fixpoint site must be deterministic too, for
	// fault probes and diagnostics: the lexicographically first seed method.
	site := "flow-check"
	for _, s := range sortedSeeds(seeds) {
		res.AddStmt(s.Method, s.Index)
		if mid, ok := e.idx.MethodID(s.Method); ok {
			w.pushLocal(e.idx, mid, int32(seeds[s]), 0)
		}
		if site == "flow-check" || s.Method < site {
			site = s.Method
		}
	}
	e.run(w, res, dirForward, site)
	return res
}

// scanForward emits the forward transfer effects of (method, reg) — the
// effects of processing one forward fact for that register — into b.
func (e *Engine) scanForward(b sumEmitter, method string, reg int) {
	m := e.Prog.Method(method)
	if m == nil {
		return
	}
	for i := range m.Instrs {
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
		switch in.Op {
		case ir.OpMove:
			b.include(m, i)
			b.push(method, in.Dst)
		case ir.OpBinop:
			b.include(m, i)
			b.push(method, in.Dst)
		case ir.OpFieldPut:
			if in.B == reg {
				loc := e.heapLoc(m, in)
				b.include(m, i)
				b.heapWrite(loc)
				b.pushHeap(loc)
			}
		case ir.OpStaticPut:
			if in.B == reg {
				loc := "s:" + in.Sym
				b.include(m, i)
				b.heapWrite(loc)
				b.pushHeap(loc)
			}
		case ir.OpFieldGet:
			// Reading a field of a tainted object yields tainted data.
			b.include(m, i)
			b.push(method, in.Dst)
		case ir.OpReturn:
			b.include(m, i)
			e.sumForwardToCallers(b, m)
		case ir.OpInvoke:
			e.sumForwardInvoke(b, m, i, in, reg)
		}
	}
}

func (e *Engine) sumForwardInvoke(b sumEmitter, m *ir.Method, idx int, in *ir.Instr, reg int) {
	pushDst := func() {
		if in.Dst != ir.NoReg {
			b.push(m.Ref(), in.Dst)
		}
	}
	argPos := -1
	for p, a := range in.Args {
		if a == reg {
			argPos = p
			break
		}
	}
	if mm := e.Model.Lookup(in.Sym); mm != nil {
		switch mm.Kind {
		case semmodel.KAppend:
			// Receiver accumulates; result aliases receiver.
			b.include(m, idx)
			if len(in.Args) > 0 {
				b.push(m.Ref(), in.Args[0])
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
			b.include(m, idx)
			if argPos > 0 && len(in.Args) > 0 {
				b.push(m.Ref(), in.Args[0])
			}
			pushDst()
		case semmodel.KDBInsert, semmodel.KDBUpdate:
			b.include(m, idx)
			for _, loc := range e.dbLocs(m, idx, in) {
				b.heapWrite(loc)
			}
		case semmodel.KMediaSetSource, semmodel.KFileWrite, semmodel.KUIDisplay:
			// Data consumption endpoint; the include carries the sink tag.
			b.include(m, idx)
		case semmodel.KExecuteDP, semmodel.KEnqueueDP:
			// Tainted data feeding another request: recorded for
			// inter-transaction dependency analysis.
			b.include(m, idx)
		case semmodel.KStringEquals, semmodel.KJSONArrLen:
			// Predicates/lengths: control data, not payload content.
			b.include(m, idx)
		default:
			b.include(m, idx)
			pushDst()
		}
		return
	}
	// Application callee: taint the matching parameter (universe-gated).
	edges := e.appCallees(m, idx)
	if len(edges) == 0 {
		b.include(m, idx)
		pushDst()
		return
	}
	for _, edge := range edges {
		callee := e.Prog.Method(edge.Callee)
		if callee == nil {
			continue
		}
		if pr := paramReg(callee, argPos); pr != ir.NoReg {
			b.begin(edge.Callee)
			b.include(m, idx)
			b.push(edge.Callee, pr)
			b.end()
		}
	}
}

// sumForwardToCallers propagates a tainted return value into each caller's
// destination register, and along synthetic async chains.
func (e *Engine) sumForwardToCallers(b sumEmitter, m *ir.Method) {
	for _, edge := range e.CG.Callees(m.Ref()) {
		if edge.Site == -1 && edge.Implicit {
			// doInBackground -> onPostExecute: return value becomes the
			// first parameter. Chain edges stay inside the task object, so
			// this push is not universe-gated (mirroring the direct rule).
			callee := e.Prog.Method(edge.Callee)
			if callee == nil {
				continue
			}
			if pr := paramReg(callee, 1); pr != ir.NoReg {
				b.push(edge.Callee, pr)
			}
		}
	}
	for _, edge := range e.CG.Callers(m.Ref()) {
		if edge.Site < 0 {
			continue
		}
		caller := e.Prog.Method(edge.Caller)
		if caller == nil {
			continue
		}
		in := &caller.Instrs[edge.Site]
		if in.Dst != ir.NoReg && !edge.Implicit {
			b.begin(edge.Caller)
			b.include(caller, edge.Site)
			b.push(edge.Caller, in.Dst)
			b.end()
		}
	}
}
