package taint

import (
	"testing"

	"extractocol/internal/intern"
	"extractocol/internal/ir"
)

// TestBackwardThroughStaticFields: a static field carries the URI.
func TestBackwardThroughStaticFields(t *testing.T) {
	p := ir.NewProgram("t.sf")
	c := p.AddClass(&ir.Class{Name: "t.sf.S", Fields: []*ir.Field{
		{Name: "base", Type: "java.lang.String", Static: true},
	}})
	w := ir.NewMethod(c, "onInit", false, nil, "void")
	v := w.ConstStr("https://sf.example.com")
	w.StaticPut("t.sf.S.base", v)
	w.ReturnVoid()
	w.Done()

	r := ir.NewMethod(c, "onGo", false, nil, "void")
	base := r.StaticGet("t.sf.S.base")
	req := r.New("org.apache.http.client.methods.HttpGet")
	r.InvokeSpecial(getInit, req, base)
	cl := r.New("org.apache.http.impl.client.DefaultHttpClient")
	r.InvokeSpecial(clInit, cl)
	r.Invoke(execRef, cl, req)
	r.ReturnVoid()
	r.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{
		{Method: "t.sf.S.onInit", Kind: ir.EventCreate},
		{Method: "t.sf.S.onGo", Kind: ir.EventClick},
	}

	e := engineFor(p)
	e.Universe = e.CG.ReachableBits("t.sf.S.onGo")
	m := p.Method("t.sf.S.onGo")
	site := findInvoke(m, execRef)
	res := e.Backward(StmtID{m.Ref(), site}, m.Instrs[site].Args[1])
	if !hasStr(res.HeapReads(), "s:t.sf.S.base") {
		t.Fatalf("HeapReads = %v", res.HeapReads())
	}
	onInit := p.Method("t.sf.S.onInit")
	constIdx := -1
	for i := range onInit.Instrs {
		if onInit.Instrs[i].Op == ir.OpConstStr {
			constIdx = i
		}
	}
	if !res.contains(onInit.Ref(), constIdx) {
		t.Fatal("static-field writer constant missing from slice")
	}
}

// TestBackwardThroughBinop: arithmetic feeding the URI (paging counters).
func TestBackwardThroughBinop(t *testing.T) {
	p := ir.NewProgram("t.bo")
	c := p.AddClass(&ir.Class{Name: "t.bo.B"})
	b := ir.NewMethod(c, "go", false, []string{"int"}, "void")
	n := b.Param(0)
	one := b.ConstInt(1)
	next := b.Binop("+", n, one)
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial(sbInit, sb)
	base := b.ConstStr("https://bo.example.com/page/")
	b.InvokeVoid(sbApp, sb, base)
	b.InvokeVoid(sbApp, sb, next)
	uri := b.Invoke(sbStr, sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, uri)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	b.Invoke(execRef, cl, req)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.bo.B.go", Kind: ir.EventClick}}

	e := engineFor(p)
	m := p.Method("t.bo.B.go")
	site := findInvoke(m, execRef)
	res := e.Backward(StmtID{m.Ref(), site}, m.Instrs[site].Args[1])
	foundBinop := false
	for i := range m.Instrs {
		if m.Instrs[i].Op == ir.OpBinop && res.contains(m.Ref(), i) {
			foundBinop = true
		}
	}
	if !foundBinop {
		t.Fatal("binop feeding the URI missing from slice")
	}
}

// TestBackwardEscapeIntoHelper: the builder escapes into a helper that
// appends to it; the helper's mutation must join the slice.
func TestBackwardEscapeIntoHelper(t *testing.T) {
	p := ir.NewProgram("t.esc")
	c := p.AddClass(&ir.Class{Name: "t.esc.E"})

	h := ir.NewMethod(c, "addAuth", false, []string{"java.lang.StringBuilder"}, "void")
	sbP := h.Param(0)
	frag := h.ConstStr("&auth=secret")
	h.InvokeVoid(sbApp, sbP, frag)
	h.ReturnVoid()
	h.Done()

	b := ir.NewMethod(c, "go", false, nil, "void")
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial(sbInit, sb)
	base := b.ConstStr("https://esc.example.com/q?x=1")
	b.InvokeVoid(sbApp, sb, base)
	b.InvokeVoid("t.esc.E.addAuth", b.This(), sb)
	uri := b.Invoke(sbStr, sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, uri)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	b.Invoke(execRef, cl, req)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.esc.E.go", Kind: ir.EventClick}}

	e := engineFor(p)
	m := p.Method("t.esc.E.go")
	site := findInvoke(m, execRef)
	res := e.Backward(StmtID{m.Ref(), site}, m.Instrs[site].Args[1])
	helper := p.Method("t.esc.E.addAuth")
	appended := false
	for i := range helper.Instrs {
		if helper.Instrs[i].Op == ir.OpConstStr && res.contains(helper.Ref(), i) {
			appended = true
		}
	}
	if !appended {
		t.Fatal("helper mutation missing from slice (object escape not followed)")
	}
}

// TestForwardFactsReachability: the pairing primitive.
func TestForwardFactsReachability(t *testing.T) {
	p := callChainApp()
	e := engineFor(p)
	onClick := p.Method("t.chain.Api.onClick")
	// Seed the URI constant's register.
	var seedReg, seedIdx int
	for i := range onClick.Instrs {
		if onClick.Instrs[i].Op == ir.OpConstStr && onClick.Instrs[i].Str == "https://x.example.com/ping" {
			seedReg, seedIdx = onClick.Instrs[i].Dst, i
		}
	}
	res := e.ForwardFacts(map[StmtID]int{{Method: onClick.Ref(), Index: seedIdx}: seedReg})
	doGet := p.Method("t.chain.Api.doGet")
	site := findInvoke(doGet, execRef)
	if !res.contains(doGet.Ref(), site) {
		t.Fatal("forward facts did not reach the demarcation point")
	}
}

func TestResultHelpers(t *testing.T) {
	p := ir.NewProgram("t.helpers")
	for _, cls := range []string{"m"} {
		c := p.AddClass(&ir.Class{Name: cls})
		for _, name := range []string{"A", "B"} {
			mm := ir.NewMethod(c, name, true, nil, "void")
			for i := 0; i < 4; i++ {
				mm.ConstInt(int64(i))
			}
			mm.ReturnVoid()
			mm.Done()
		}
	}
	idx := ir.NewIndex(p)
	tab := &intern.SyncTable{}
	a := NewResult(idx, tab)
	a.AddStmt("m.A", 1)
	a.AddStmt("m.B", 2)
	a.heapReads.Add(tab.Intern("s:y"))
	a.sinks.Add(tab.Intern("media"))
	a.sources.Add(tab.Intern("location"))
	if a.Size() != 2 || !hasStr(a.HeapReads(), "s:y") ||
		!hasStr(a.Sources(), "location") || !hasStr(a.Sinks(), "media") {
		t.Fatalf("accessors lost data: %+v", a)
	}
	ms := a.Methods()
	if len(ms) != 2 || ms[0] != "m.A" || ms[1] != "m.B" {
		t.Fatalf("Methods = %v", ms)
	}
}

// TestForwardStaticWrites: response value stored in a static field is a
// response-originated object.
func TestForwardStaticWrites(t *testing.T) {
	p := ir.NewProgram("t.fs")
	c := p.AddClass(&ir.Class{Name: "t.fs.F"})
	b := ir.NewMethod(c, "go", false, nil, "void")
	u := b.ConstStr("https://fs.example.com/x")
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, u)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	resp := b.Invoke(execRef, cl, req)
	ent := b.Invoke(getEnt, resp)
	raw := b.InvokeStatic(entCont, ent)
	b.StaticPut("t.fs.F.cache", raw)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.fs.F.go", Kind: ir.EventClick}}

	e := engineFor(p)
	m := p.Method("t.fs.F.go")
	site := findInvoke(m, execRef)
	res := e.Forward(StmtID{m.Ref(), site}, m.Instrs[site].Dst)
	if !hasStr(res.HeapWrites(), "s:t.fs.F.cache") {
		t.Fatalf("HeapWrites = %v", res.HeapWrites())
	}
}
