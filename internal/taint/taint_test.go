package taint

import (
	"reflect"
	"testing"

	"extractocol/internal/callgraph"
	"extractocol/internal/ir"
	"extractocol/internal/semmodel"
)

const (
	sbInit  = "java.lang.StringBuilder.<init>"
	sbApp   = "java.lang.StringBuilder.append"
	sbStr   = "java.lang.StringBuilder.toString"
	getInit = "org.apache.http.client.methods.HttpGet.<init>"
	clInit  = "org.apache.http.impl.client.DefaultHttpClient.<init>"
	execRef = "org.apache.http.client.HttpClient.execute"
	jGetStr = "org.json.JSONObject.getString"
	jParse  = "org.json.JSONObject.parse"
	entCont = "org.apache.http.util.EntityUtils.toString"
	getEnt  = "org.apache.http.HttpResponse.getEntity"
)

// contains reports whether the statement is part of r's slice.
func (r *Result) contains(method string, index int) bool {
	mid, ok := r.idx.MethodID(method)
	if !ok || index < 0 || index >= len(r.idx.MethodAt(mid).Instrs) {
		return false
	}
	return r.stmts.Has(r.idx.StmtID(mid, index))
}

// simpleApp: a single handler builds a URI with StringBuilder, executes,
// parses JSON from the response and stores a value into a field.
func simpleApp() *ir.Program {
	p := ir.NewProgram("t.app")
	c := p.AddClass(&ir.Class{
		Name:   "t.app.Main",
		Fields: []*ir.Field{{Name: "token", Type: "java.lang.String"}},
	})
	b := ir.NewMethod(c, "fetch", false, nil, "void")
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial(sbInit, sb)
	base := b.ConstStr("https://api.example.com/v1/items?id=")
	b.InvokeVoid(sbApp, sb, base)
	id := b.ConstInt(7)
	b.InvokeVoid(sbApp, sb, id)
	uri := b.Invoke(sbStr, sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, uri)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	resp := b.Invoke(execRef, cl, req)
	ent := b.Invoke(getEnt, resp)
	body := b.InvokeStatic(entCont, ent)
	js := b.InvokeStatic(jParse, body)
	keyTok := b.ConstStr("token")
	tok := b.Invoke(jGetStr, js, keyTok)
	b.FieldPut(b.This(), "token", tok)
	// Unrelated statement that must stay out of both slices.
	b.ConstStr("unrelated-noise")
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.app.Main.fetch", Kind: ir.EventCreate}}
	return p
}

func findInvoke(m *ir.Method, sym string) int {
	for i := range m.Instrs {
		if m.Instrs[i].Op == ir.OpInvoke && m.Instrs[i].Sym == sym {
			return i
		}
	}
	return -1
}

func engineFor(p *ir.Program) *Engine {
	return NewEngine(p, semmodel.Default(), callgraph.Build(p, semmodel.Default()))
}

// hasStr reports membership in a resolved string set (HeapReads, Sinks, ...).
func hasStr(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

// sameResult compares two slices by their observable projections. Raw
// struct comparison is wrong across engines: sink/source/heap bits are
// keyed by each engine's symbol table, so the same slice can carry
// different interned IDs depending on what was interned before it.
func sameResult(a, b *Result) bool {
	return a.Stmts().Equal(b.Stmts()) &&
		reflect.DeepEqual(a.HeapReads(), b.HeapReads()) &&
		reflect.DeepEqual(a.HeapWrites(), b.HeapWrites()) &&
		reflect.DeepEqual(a.Sinks(), b.Sinks()) &&
		reflect.DeepEqual(a.Sources(), b.Sources())
}

func TestBackwardCollectsURIConstruction(t *testing.T) {
	p := simpleApp()
	e := engineFor(p)
	m := p.Method("t.app.Main.fetch")
	site := findInvoke(m, execRef)
	if site < 0 {
		t.Fatal("no execute site")
	}
	reqReg := m.Instrs[site].Args[1]
	res := e.Backward(StmtID{m.Ref(), site}, reqReg)

	// The slice must contain: HttpGet init, toString, both appends, the
	// URI constant, the StringBuilder init.
	for _, sym := range []string{getInit, sbStr, sbApp, sbInit} {
		if idx := findInvoke(m, sym); !res.contains(m.Ref(), idx) {
			t.Errorf("backward slice missing %s", sym)
		}
	}
	foundConst := false
	noise := false
	for i := range m.Instrs {
		if m.Instrs[i].Op == ir.OpConstStr {
			if m.Instrs[i].Str == "https://api.example.com/v1/items?id=" && res.contains(m.Ref(), i) {
				foundConst = true
			}
			if m.Instrs[i].Str == "unrelated-noise" && res.contains(m.Ref(), i) {
				noise = true
			}
		}
	}
	if !foundConst {
		t.Error("backward slice missing URI constant")
	}
	if noise {
		t.Error("backward slice includes unrelated statement")
	}
}

func TestForwardCollectsResponseProcessing(t *testing.T) {
	p := simpleApp()
	e := engineFor(p)
	m := p.Method("t.app.Main.fetch")
	site := findInvoke(m, execRef)
	respReg := m.Instrs[site].Dst
	res := e.Forward(StmtID{m.Ref(), site}, respReg)

	for _, sym := range []string{getEnt, entCont, jParse, jGetStr} {
		if idx := findInvoke(m, sym); !res.contains(m.Ref(), idx) {
			t.Errorf("forward slice missing %s", sym)
		}
	}
	if hw := res.HeapWrites(); len(hw) != 1 || hw[0] != "f:t.app.Main.token" {
		t.Errorf("HeapWrites = %v, want token field", hw)
	}
}

// callChainApp: URI is built in the handler and passed through a helper
// that performs the request; the response travels back through the return.
func callChainApp() *ir.Program {
	p := ir.NewProgram("t.chain")
	c := p.AddClass(&ir.Class{Name: "t.chain.Api"})

	h := ir.NewMethod(c, "doGet", false, []string{"java.lang.String"}, "java.lang.String")
	uriP := h.Param(0)
	req := h.New("org.apache.http.client.methods.HttpGet")
	h.InvokeSpecial(getInit, req, uriP)
	cl := h.New("org.apache.http.impl.client.DefaultHttpClient")
	h.InvokeSpecial(clInit, cl)
	resp := h.Invoke(execRef, cl, req)
	ent := h.Invoke(getEnt, resp)
	body := h.InvokeStatic(entCont, ent)
	h.Return(body)
	h.Done()

	m := ir.NewMethod(c, "onClick", false, nil, "void")
	u := m.ConstStr("https://x.example.com/ping")
	this := m.This()
	out := m.Invoke("t.chain.Api.doGet", this, u)
	js := m.InvokeStatic(jParse, out)
	k := m.ConstStr("pong")
	v := m.Invoke(jGetStr, js, k)
	m.FieldPut(this, "last", v)
	m.ReturnVoid()
	m.Done()
	c.Fields = []*ir.Field{{Name: "last", Type: "java.lang.String"}}

	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.chain.Api.onClick", Kind: ir.EventClick}}
	return p
}

func TestBackwardCrossesCallBoundary(t *testing.T) {
	p := callChainApp()
	e := engineFor(p)
	doGet := p.Method("t.chain.Api.doGet")
	site := findInvoke(doGet, execRef)
	res := e.Backward(StmtID{doGet.Ref(), site}, doGet.Instrs[site].Args[1])

	onClick := p.Method("t.chain.Api.onClick")
	constIdx := -1
	for i := range onClick.Instrs {
		if onClick.Instrs[i].Op == ir.OpConstStr && onClick.Instrs[i].Str == "https://x.example.com/ping" {
			constIdx = i
		}
	}
	if constIdx < 0 {
		t.Fatal("missing const")
	}
	if !res.contains(onClick.Ref(), constIdx) {
		t.Error("backward slice should reach the caller's URI constant")
	}
}

func TestForwardCrossesReturnBoundary(t *testing.T) {
	p := callChainApp()
	e := engineFor(p)
	doGet := p.Method("t.chain.Api.doGet")
	site := findInvoke(doGet, execRef)
	res := e.Forward(StmtID{doGet.Ref(), site}, doGet.Instrs[site].Dst)

	onClick := p.Method("t.chain.Api.onClick")
	if idx := findInvoke(onClick, jGetStr); !res.contains(onClick.Ref(), idx) {
		t.Error("forward slice should follow the return into the caller")
	}
	if !hasStr(res.HeapWrites(), "f:t.chain.Api.last") {
		t.Errorf("HeapWrites = %v", res.HeapWrites())
	}
}

// asyncApp: a location callback stores a query fragment into a field; a
// click handler builds the request from that field (the weather-app
// pattern of §3.4).
func asyncApp() *ir.Program {
	p := ir.NewProgram("t.async")
	c := p.AddClass(&ir.Class{
		Name:   "t.async.W",
		Fields: []*ir.Field{{Name: "loc", Type: "java.lang.String"}},
	})

	lb := ir.NewMethod(c, "onLocation", false, []string{"java.lang.String"}, "void")
	city := lb.Param(0)
	sb := lb.New("java.lang.StringBuilder")
	lb.InvokeSpecial(sbInit, sb)
	pre := lb.ConstStr("city=")
	lb.InvokeVoid(sbApp, sb, pre)
	lb.InvokeVoid(sbApp, sb, city)
	q := lb.Invoke(sbStr, sb)
	lb.FieldPut(lb.This(), "loc", q)
	lb.ReturnVoid()
	lb.Done()

	cb := ir.NewMethod(c, "onClick", false, nil, "void")
	sb2 := cb.New("java.lang.StringBuilder")
	cb.InvokeSpecial(sbInit, sb2)
	base := cb.ConstStr("https://w.example.com/q?")
	cb.InvokeVoid(sbApp, sb2, base)
	frag := cb.FieldGet(cb.This(), "loc")
	cb.InvokeVoid(sbApp, sb2, frag)
	uri := cb.Invoke(sbStr, sb2)
	req := cb.New("org.apache.http.client.methods.HttpGet")
	cb.InvokeSpecial(getInit, req, uri)
	cl := cb.New("org.apache.http.impl.client.DefaultHttpClient")
	cb.InvokeSpecial(clInit, cl)
	cb.Invoke(execRef, cl, req)
	cb.ReturnVoid()
	cb.Done()

	p.Manifest.EntryPoints = []ir.EntryPoint{
		{Method: "t.async.W.onLocation", Kind: ir.EventLocation},
		{Method: "t.async.W.onClick", Kind: ir.EventClick},
	}
	return p
}

func TestAsyncHeuristicCrossesOneHop(t *testing.T) {
	p := asyncApp()
	e := engineFor(p)
	// Restrict the universe to the click handler's context, as the
	// transaction enumerator does.
	cg := e.CG
	e.Universe = cg.ReachableBits("t.async.W.onClick")
	e.MaxAsyncHops = 1

	m := p.Method("t.async.W.onClick")
	site := findInvoke(m, execRef)
	res := e.Backward(StmtID{m.Ref(), site}, m.Instrs[site].Args[1])

	onLoc := p.Method("t.async.W.onLocation")
	cityConst := -1
	for i := range onLoc.Instrs {
		if onLoc.Instrs[i].Op == ir.OpConstStr && onLoc.Instrs[i].Str == "city=" {
			cityConst = i
		}
	}
	if !res.contains(onLoc.Ref(), cityConst) {
		t.Error("async heuristic should pull the location handler's constant into the slice")
	}
	if !hasStr(res.HeapReads(), "f:t.async.W.loc") {
		t.Errorf("HeapReads = %v", res.HeapReads())
	}
}

func TestAsyncHeuristicDisabledStopsAtBoundary(t *testing.T) {
	p := asyncApp()
	e := engineFor(p)
	e.Universe = e.CG.ReachableBits("t.async.W.onClick")
	e.MaxAsyncHops = 0

	m := p.Method("t.async.W.onClick")
	site := findInvoke(m, execRef)
	res := e.Backward(StmtID{m.Ref(), site}, m.Instrs[site].Args[1])

	onLoc := p.Method("t.async.W.onLocation")
	for i := range onLoc.Instrs {
		if res.contains(onLoc.Ref(), i) {
			t.Fatalf("with hops=0 the slice must not cross the event boundary (got instr %d)", i)
		}
	}
	// The heap read itself is still observed.
	if !hasStr(res.HeapReads(), "f:t.async.W.loc") {
		t.Errorf("HeapReads = %v", res.HeapReads())
	}
}

func TestSinksRecordedInForwardSlice(t *testing.T) {
	p := ir.NewProgram("t.media")
	c := p.AddClass(&ir.Class{Name: "t.media.M"})
	b := ir.NewMethod(c, "play", false, nil, "void")
	u := b.ConstStr("https://cdn.example.com/v.mp4")
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, u)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	resp := b.Invoke(execRef, cl, req)
	ent := b.Invoke(getEnt, resp)
	body := b.InvokeStatic(entCont, ent)
	mp := b.New("android.media.MediaPlayer")
	b.InvokeVoid("android.media.MediaPlayer.setDataSource", mp, body)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.media.M.play", Kind: ir.EventClick}}

	e := engineFor(p)
	m := p.Method("t.media.M.play")
	site := findInvoke(m, execRef)
	res := e.Forward(StmtID{m.Ref(), site}, m.Instrs[site].Dst)
	if !hasStr(res.Sinks(), "media") {
		t.Errorf("Sinks = %v, want media", res.Sinks())
	}
}

func TestResourceReadRecorded(t *testing.T) {
	p := ir.NewProgram("t.res")
	p.Resources["api_key"] = "KEY123"
	c := p.AddClass(&ir.Class{Name: "t.res.R"})
	b := ir.NewMethod(c, "go", false, nil, "void")
	resObj := b.New("android.content.res.Resources")
	keyName := b.ConstStr("api_key")
	key := b.Invoke("android.content.res.Resources.getString", resObj, keyName)
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial(sbInit, sb)
	pre := b.ConstStr("https://api.example.com/x?key=")
	b.InvokeVoid(sbApp, sb, pre)
	b.InvokeVoid(sbApp, sb, key)
	uri := b.Invoke(sbStr, sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, uri)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	b.Invoke(execRef, cl, req)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.res.R.go", Kind: ir.EventCreate}}

	e := engineFor(p)
	m := p.Method("t.res.R.go")
	site := findInvoke(m, execRef)
	res := e.Backward(StmtID{m.Ref(), site}, m.Instrs[site].Args[1])
	if !hasStr(res.HeapReads(), "res:api_key") {
		t.Errorf("HeapReads = %v, want res:api_key", res.HeapReads())
	}
}

func TestSliceIsSmallFractionOfProgram(t *testing.T) {
	// The paper reports slices around 6.3% of all code for Diode; here we
	// simply require the slice to be a strict, small subset.
	p := simpleApp()
	// Pad the program with unrelated methods.
	c := p.Class("t.app.Main")
	for i := 0; i < 20; i++ {
		b := ir.NewMethod(c, "pad"+string(rune('a'+i)), true, nil, "void")
		b.ConstStr("pad")
		b.ConstInt(int64(i))
		b.ReturnVoid()
		b.Done()
	}
	e := engineFor(p)
	m := p.Method("t.app.Main.fetch")
	site := findInvoke(m, execRef)
	res := e.Backward(StmtID{m.Ref(), site}, m.Instrs[site].Args[1])
	if total := p.InstrCount(); res.Size() >= total/2 {
		t.Fatalf("slice %d of %d instructions; not selective", res.Size(), total)
	}
}
