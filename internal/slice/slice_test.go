package slice

import (
	"testing"

	"extractocol/internal/callgraph"
	"extractocol/internal/ir"
	"extractocol/internal/semmodel"
	"extractocol/internal/taint"
)

// inSlice reports whether statement index of method is part of r's slice.
func inSlice(r *taint.Result, method string, index int) bool {
	idx := r.Index()
	mid, ok := idx.MethodID(method)
	return ok && index >= 0 && index < len(idx.MethodAt(mid).Instrs) &&
		r.Stmts().Has(idx.StmtID(mid, index))
}

const (
	sbInit  = "java.lang.StringBuilder.<init>"
	sbApp   = "java.lang.StringBuilder.append"
	sbStr   = "java.lang.StringBuilder.toString"
	getInit = "org.apache.http.client.methods.HttpGet.<init>"
	clInit  = "org.apache.http.impl.client.DefaultHttpClient.<init>"
	execRef = "org.apache.http.client.HttpClient.execute"
	jParse  = "org.json.JSONObject.parse"
	jGetStr = "org.json.JSONObject.getString"
	entCont = "org.apache.http.util.EntityUtils.toString"
	getEnt  = "org.apache.http.HttpResponse.getEntity"
)

// emitGet appends a full GET + JSON parse flow to builder b using URI uri.
func emitGet(b *ir.B, uriConst, jsonKey string) {
	u := b.ConstStr(uriConst)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, u)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	resp := b.Invoke(execRef, cl, req)
	ent := b.Invoke(getEnt, resp)
	body := b.InvokeStatic(entCont, ent)
	js := b.InvokeStatic(jParse, body)
	k := b.ConstStr(jsonKey)
	b.Invoke(jGetStr, js, k)
}

func twoHandlerApp() *ir.Program {
	p := ir.NewProgram("t.two")
	c := p.AddClass(&ir.Class{Name: "t.two.A"})
	h1 := ir.NewMethod(c, "onClickOne", false, nil, "void")
	emitGet(h1, "https://a.example.com/one.json", "one")
	h1.ReturnVoid()
	h1.Done()
	h2 := ir.NewMethod(c, "onClickTwo", false, nil, "void")
	emitGet(h2, "https://a.example.com/two.json", "two")
	h2.ReturnVoid()
	h2.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{
		{Method: "t.two.A.onClickOne", Kind: ir.EventClick},
		{Method: "t.two.A.onClickTwo", Kind: ir.EventClick},
	}
	return p
}

func find(p *ir.Program) []*Transaction {
	model := semmodel.Default()
	cg := callgraph.Build(p, model)
	return Find(p, model, cg, Options{MaxAsyncHops: 1})
}

func TestFindEnumeratesPerHandler(t *testing.T) {
	txs := find(twoHandlerApp())
	if len(txs) != 2 {
		t.Fatalf("transactions = %d, want 2", len(txs))
	}
	for _, tx := range txs {
		if tx.Request == nil || tx.Request.Size() == 0 {
			t.Errorf("tx %d missing request slice", tx.ID)
		}
		if tx.Response == nil || tx.Response.Size() == 0 {
			t.Errorf("tx %d missing response slice", tx.ID)
		}
	}
	if txs[0].Entry.Method == txs[1].Entry.Method {
		t.Error("transactions should carry distinct entry contexts")
	}
}

// sharedDPApp reproduces the Fig. 5 code-reuse pattern: two handlers
// compute different URIs and funnel them through one shared doGet method
// containing the demarcation point.
func sharedDPApp() *ir.Program {
	p := ir.NewProgram("t.shared")
	c := p.AddClass(&ir.Class{Name: "t.shared.S"})

	dg := ir.NewMethod(c, "doGet", false, []string{"java.lang.String"}, "java.lang.String")
	uriP := dg.Param(0)
	req := dg.New("org.apache.http.client.methods.HttpGet")
	dg.InvokeSpecial(getInit, req, uriP)
	cl := dg.New("org.apache.http.impl.client.DefaultHttpClient")
	dg.InvokeSpecial(clInit, cl)
	resp := dg.Invoke(execRef, cl, req)
	ent := dg.Invoke(getEnt, resp)
	body := dg.InvokeStatic(entCont, ent)
	dg.Return(body)
	dg.Done()

	a := ir.NewMethod(c, "requestA", false, nil, "void")
	ua := a.ConstStr("https://s.example.com/a.json")
	ra := a.Invoke("t.shared.S.doGet", a.This(), ua)
	ja := a.InvokeStatic(jParse, ra)
	ka := a.ConstStr("fieldA")
	a.Invoke(jGetStr, ja, ka)
	a.ReturnVoid()
	a.Done()

	bm := ir.NewMethod(c, "requestB", false, nil, "void")
	ub := bm.ConstStr("https://s.example.com/b.json")
	rb := bm.Invoke("t.shared.S.doGet", bm.This(), ub)
	jb := bm.InvokeStatic(jParse, rb)
	kb := bm.ConstStr("fieldB")
	bm.Invoke(jGetStr, jb, kb)
	bm.ReturnVoid()
	bm.Done()

	p.Manifest.EntryPoints = []ir.EntryPoint{
		{Method: "t.shared.S.requestA", Kind: ir.EventClick},
		{Method: "t.shared.S.requestB", Kind: ir.EventClick},
	}
	return p
}

func TestSharedDPSeparatedByContext(t *testing.T) {
	p := sharedDPApp()
	txs := find(p)
	if len(txs) != 2 {
		t.Fatalf("transactions = %d, want 2 (one per context)", len(txs))
	}
	reqA, reqB := txs[0].Request, txs[1].Request
	if txs[0].Entry.Method == "t.shared.S.requestB" {
		reqA, reqB = reqB, reqA
	}

	// Context A's slice must contain a.json's constant but not b.json's.
	hasConst := func(r *taint.Result, val string) bool {
		for _, ref := range []string{"t.shared.S.requestA", "t.shared.S.requestB"} {
			m := p.Method(ref)
			for i := range m.Instrs {
				if m.Instrs[i].Op == ir.OpConstStr && m.Instrs[i].Str == val && inSlice(r, ref, i) {
					return true
				}
			}
		}
		return false
	}
	if !hasConst(reqA, "https://s.example.com/a.json") {
		t.Error("context A slice missing its URI")
	}
	if hasConst(reqA, "https://s.example.com/b.json") {
		t.Error("context A slice leaked context B's URI (disjointness violated)")
	}
	if !hasConst(reqB, "https://s.example.com/b.json") {
		t.Error("context B slice missing its URI")
	}

	// Responses also stay disjoint: A's response processes fieldA only.
	respA := txs[0].Response
	if txs[0].Entry.Method == "t.shared.S.requestB" {
		respA = txs[1].Response
	}
	mB := p.Method("t.shared.S.requestB")
	for i := range mB.Instrs {
		if mB.Instrs[i].Op == ir.OpInvoke && mB.Instrs[i].Sym == jGetStr &&
			inSlice(respA, "t.shared.S.requestB", i) {
			t.Error("context A response slice leaked into requestB")
		}
	}
}

func TestAugmentationPullsKeyConstantsIntoResponseSlice(t *testing.T) {
	p := twoHandlerApp()
	txs := find(p)
	tx := txs[0]
	m := p.Method(tx.Entry.Method)
	// The response slice must include the ConstStr for the JSON key, even
	// though forward taint alone would not reach it.
	found := false
	for i := range m.Instrs {
		in := &m.Instrs[i]
		if in.Op == ir.OpConstStr && (in.Str == "one" || in.Str == "two") {
			if inSlice(tx.Response, m.Ref(), i) {
				found = true
			}
		}
	}
	if !found {
		t.Error("augmentation did not pull JSON key constant into the response slice")
	}
}

func TestMediaSinkTransaction(t *testing.T) {
	p := ir.NewProgram("t.m")
	c := p.AddClass(&ir.Class{Name: "t.m.P"})
	b := ir.NewMethod(c, "play", false, nil, "void")
	u := b.ConstStr("https://cdn.example.com/s.mp3")
	mp := b.New("android.media.MediaPlayer")
	b.InvokeVoid("android.media.MediaPlayer.setDataSource", mp, u)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.m.P.play", Kind: ir.EventClick}}

	txs := find(p)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d, want 1", len(txs))
	}
	if !txs[0].Sinks["media"] {
		t.Errorf("Sinks = %v, want media", txs[0].Sinks)
	}
	if txs[0].Response != nil {
		t.Error("media DP has no response slice")
	}
}

func TestIntentOnlyTransactionInvisible(t *testing.T) {
	p := ir.NewProgram("t.i")
	c := p.AddClass(&ir.Class{Name: "t.i.I"})
	b := ir.NewMethod(c, "onIntent", false, nil, "void")
	emitGet(b, "https://hidden.example.com/x.json", "k")
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.i.I.onIntent", Kind: ir.EventIntent}}
	if txs := find(p); len(txs) != 0 {
		t.Fatalf("intent-only transactions must be invisible, got %d", len(txs))
	}
}

func TestVolleyCallbackResponseRoot(t *testing.T) {
	p := ir.NewProgram("t.v")
	reqCls := p.AddClass(&ir.Class{Name: "t.v.MyRequest", Super: "com.android.volley.toolbox.JsonObjectRequest"})
	onr := ir.NewMethod(reqCls, "onResponse", false, []string{"org.json.JSONObject"}, "void")
	js := onr.Param(0)
	k := onr.ConstStr("items")
	onr.Invoke(jGetStr, js, k)
	onr.ReturnVoid()
	onr.Done()

	main := p.AddClass(&ir.Class{Name: "t.v.Main"})
	b := ir.NewMethod(main, "onCreate", false, nil, "void")
	u := b.ConstStr("https://v.example.com/list.json")
	r := b.New("t.v.MyRequest")
	b.InvokeSpecial("com.android.volley.toolbox.JsonObjectRequest.<init>", r, u)
	q := b.New("com.android.volley.RequestQueue")
	b.InvokeVoid("com.android.volley.RequestQueue.add", q, r)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.v.Main.onCreate", Kind: ir.EventCreate}}

	txs := find(p)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d, want 1", len(txs))
	}
	tx := txs[0]
	if tx.Response == nil {
		t.Fatal("volley transaction missing callback response slice")
	}
	m := p.Method("t.v.MyRequest.onResponse")
	idx := -1
	for i := range m.Instrs {
		if m.Instrs[i].Op == ir.OpInvoke && m.Instrs[i].Sym == jGetStr {
			idx = i
		}
	}
	if !inSlice(tx.Response, "t.v.MyRequest.onResponse", idx) {
		t.Error("response slice missing onResponse getString")
	}
}
