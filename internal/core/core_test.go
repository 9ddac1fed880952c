package core

import (
	"strings"
	"testing"

	"extractocol/internal/ir"
	"extractocol/internal/siglang"
)

const (
	sbInit   = "java.lang.StringBuilder.<init>"
	sbApp    = "java.lang.StringBuilder.append"
	sbStr    = "java.lang.StringBuilder.toString"
	getInit  = "org.apache.http.client.methods.HttpGet.<init>"
	postInit = "org.apache.http.client.methods.HttpPost.<init>"
	clInit   = "org.apache.http.impl.client.DefaultHttpClient.<init>"
	execRef  = "org.apache.http.client.HttpClient.execute"
	jParse   = "org.json.JSONObject.parse"
	jGetStr  = "org.json.JSONObject.getString"
	entCont  = "org.apache.http.util.EntityUtils.toString"
	getEnt   = "org.apache.http.HttpResponse.getEntity"
	seInit   = "org.apache.http.entity.StringEntity.<init>"
	setEnt   = "org.apache.http.client.methods.HttpPost.setEntity"
	addHdr   = "org.apache.http.client.methods.HttpPost.addHeader"
)

// radioRedditLike builds a miniature of the paper's radio reddit app:
//   - login POST whose JSON response carries modhash and cookie,
//     stored into fields;
//   - vote POST whose body uses the stored modhash and whose header
//     carries the stored cookie.
func radioRedditLike() *ir.Program {
	p := ir.NewProgram("com.radioreddit.android")
	c := p.AddClass(&ir.Class{Name: "rr.Api", Fields: []*ir.Field{
		{Name: "modhash", Type: "java.lang.String"},
		{Name: "cookie", Type: "java.lang.String"},
	}})

	lb := ir.NewMethod(c, "onLogin", false, []string{"java.lang.String", "java.lang.String"}, "void")
	user, pass := lb.Param(0), lb.Param(1)
	sb := lb.New("java.lang.StringBuilder")
	lb.InvokeSpecial(sbInit, sb)
	s1 := lb.ConstStr("user=")
	lb.InvokeVoid(sbApp, sb, s1)
	lb.InvokeVoid(sbApp, sb, user)
	s2 := lb.ConstStr("&passwd=")
	lb.InvokeVoid(sbApp, sb, s2)
	lb.InvokeVoid(sbApp, sb, pass)
	s3 := lb.ConstStr("&api_type=json")
	lb.InvokeVoid(sbApp, sb, s3)
	body := lb.Invoke(sbStr, sb)
	ent := lb.New("org.apache.http.entity.StringEntity")
	lb.InvokeSpecial(seInit, ent, body)
	u := lb.ConstStr("https://ssl.reddit.com/api/login")
	req := lb.New("org.apache.http.client.methods.HttpPost")
	lb.InvokeSpecial(postInit, req, u)
	lb.InvokeVoid(setEnt, req, ent)
	cl := lb.New("org.apache.http.impl.client.DefaultHttpClient")
	lb.InvokeSpecial(clInit, cl)
	resp := lb.Invoke(execRef, cl, req)
	re := lb.Invoke(getEnt, resp)
	raw := lb.InvokeStatic(entCont, re)
	js := lb.InvokeStatic(jParse, raw)
	km := lb.ConstStr("modhash")
	mh := lb.Invoke(jGetStr, js, km)
	lb.FieldPut(lb.This(), "modhash", mh)
	kc := lb.ConstStr("cookie")
	ck := lb.Invoke(jGetStr, js, kc)
	lb.FieldPut(lb.This(), "cookie", ck)
	lb.ReturnVoid()
	lb.Done()

	vb := ir.NewMethod(c, "onVote", false, []string{"java.lang.String"}, "void")
	id := vb.Param(0)
	sb2 := vb.New("java.lang.StringBuilder")
	vb.InvokeSpecial(sbInit, sb2)
	v1 := vb.ConstStr("id=")
	vb.InvokeVoid(sbApp, sb2, v1)
	vb.InvokeVoid(sbApp, sb2, id)
	v2 := vb.ConstStr("&uh=")
	vb.InvokeVoid(sbApp, sb2, v2)
	uh := vb.FieldGet(vb.This(), "modhash")
	vb.InvokeVoid(sbApp, sb2, uh)
	body2 := vb.Invoke(sbStr, sb2)
	ent2 := vb.New("org.apache.http.entity.StringEntity")
	vb.InvokeSpecial(seInit, ent2, body2)
	u2 := vb.ConstStr("http://www.reddit.com/api/vote")
	req2 := vb.New("org.apache.http.client.methods.HttpPost")
	vb.InvokeSpecial(postInit, req2, u2)
	vb.InvokeVoid(setEnt, req2, ent2)
	hk := vb.ConstStr("Cookie")
	hv := vb.FieldGet(vb.This(), "cookie")
	vb.InvokeVoid(addHdr, req2, hk, hv)
	cl2 := vb.New("org.apache.http.impl.client.DefaultHttpClient")
	vb.InvokeSpecial(clInit, cl2)
	vb.Invoke(execRef, cl2, req2)
	vb.ReturnVoid()
	vb.Done()

	p.Manifest.EntryPoints = []ir.EntryPoint{
		{Method: "rr.Api.onLogin", Kind: ir.EventLogin},
		{Method: "rr.Api.onVote", Kind: ir.EventClick},
	}
	return p
}

func TestAnalyzeRadioRedditLike(t *testing.T) {
	rep, err := Analyze(radioRedditLike(), NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transactions) != 2 {
		t.Fatalf("transactions = %d, want 2", len(rep.Transactions))
	}
	byURI := map[string]*Transaction{}
	for _, tx := range rep.Transactions {
		byURI[siglang.RegexBody(tx.Request.URI)] = tx
	}
	login := byURI[`https://ssl\.reddit\.com/api/login`]
	if login == nil {
		t.Fatalf("login transaction missing: %v", keys(byURI))
	}
	if login.Request.Method != "POST" || !login.Paired {
		t.Errorf("login: method=%s paired=%v", login.Request.Method, login.Paired)
	}
	// Login body keywords: user, passwd, api_type.
	kw := siglang.Keywords(login.Request.Body)
	if strings.Join(kw, ",") != "api_type,passwd,user" {
		t.Errorf("login body keywords = %v", kw)
	}
	// Login response: modhash + cookie.
	rkw := siglang.Keywords(&siglang.JSON{Root: login.Response.JSON})
	if strings.Join(rkw, ",") != "cookie,modhash" {
		t.Errorf("login response keywords = %v", rkw)
	}

	vote := byURI[`http://www\.reddit\.com/api/vote`]
	if vote == nil {
		t.Fatal("vote transaction missing")
	}
	if got := siglang.Keywords(vote.Request.Body); strings.Join(got, ",") != "id,uh" {
		t.Errorf("vote body keywords = %v", got)
	}

	// The dependency graph must link login -> vote for both the modhash
	// (body) and the cookie (header).
	var sawBody, sawHeader bool
	for _, d := range rep.Deps {
		if d.From == login.ID && d.To == vote.ID {
			if d.FromField == "modhash" && strings.HasPrefix(d.ToPart, "body") {
				sawBody = true
			}
			if d.FromField == "cookie" && d.ToPart == "header:Cookie" {
				sawHeader = true
			}
		}
	}
	if !sawBody {
		t.Errorf("missing modhash body dependency: %+v", rep.Deps)
	}
	if !sawHeader {
		t.Errorf("missing cookie header dependency: %+v", rep.Deps)
	}
}

func TestSliceFractionIsSmall(t *testing.T) {
	p := radioRedditLike()
	// Pad with dead code to give slices something to exclude.
	c := p.Class("rr.Api")
	for i := 0; i < 30; i++ {
		b := ir.NewMethod(c, "pad"+string(rune('A'+i)), true, nil, "void")
		for j := 0; j < 10; j++ {
			b.ConstInt(int64(j))
		}
		b.ReturnVoid()
		b.Done()
	}
	rep, err := Analyze(p, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SliceFraction <= 0 || rep.SliceFraction >= 0.5 {
		t.Fatalf("slice fraction = %.3f, want small positive", rep.SliceFraction)
	}
}

func TestDeduplicationAcrossEntries(t *testing.T) {
	// Two entry points invoking the same fetch method yield one unique
	// signature with two recorded entries.
	p := ir.NewProgram("t.dd")
	c := p.AddClass(&ir.Class{Name: "t.dd.D"})
	f := ir.NewMethod(c, "fetch", false, nil, "void")
	u := f.ConstStr("https://dd.example.com/feed.json")
	req := f.New("org.apache.http.client.methods.HttpGet")
	f.InvokeSpecial(getInit, req, u)
	cl := f.New("org.apache.http.impl.client.DefaultHttpClient")
	f.InvokeSpecial(clInit, cl)
	f.Invoke(execRef, cl, req)
	f.ReturnVoid()
	f.Done()
	for _, name := range []string{"onA", "onB"} {
		b := ir.NewMethod(c, name, false, nil, "void")
		b.InvokeVoid("t.dd.D.fetch", b.This())
		b.ReturnVoid()
		b.Done()
	}
	p.Manifest.EntryPoints = []ir.EntryPoint{
		{Method: "t.dd.D.onA", Kind: ir.EventClick},
		{Method: "t.dd.D.onB", Kind: ir.EventClick},
	}
	rep, err := Analyze(p, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transactions) != 1 {
		t.Fatalf("transactions = %d, want 1 after dedup", len(rep.Transactions))
	}
	if len(rep.Transactions[0].Entries) != 2 {
		t.Fatalf("entries = %v", rep.Transactions[0].Entries)
	}
}

func TestScopePrefixFiltersLibraries(t *testing.T) {
	p := ir.NewProgram("com.kayak.android")
	c := p.AddClass(&ir.Class{Name: "com.kayak.Api"})
	b := ir.NewMethod(c, "go", false, nil, "void")
	u := b.ConstStr("https://www.kayak.example/api/x")
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, u)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	b.Invoke(execRef, cl, req)
	b.ReturnVoid()
	b.Done()

	lib := p.AddClass(&ir.Class{Name: "com.adlib.Tracker"})
	tb := ir.NewMethod(lib, "track", false, nil, "void")
	tu := tb.ConstStr("https://ads.example.com/pixel")
	treq := tb.New("org.apache.http.client.methods.HttpGet")
	tb.InvokeSpecial(getInit, treq, tu)
	tcl := tb.New("org.apache.http.impl.client.DefaultHttpClient")
	tb.InvokeSpecial(clInit, tcl)
	tb.Invoke(execRef, tcl, treq)
	tb.ReturnVoid()
	tb.Done()

	p.Manifest.EntryPoints = []ir.EntryPoint{
		{Method: "com.kayak.Api.go", Kind: ir.EventCreate},
		{Method: "com.adlib.Tracker.track", Kind: ir.EventCreate},
	}

	full, err := Analyze(p, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Transactions) != 2 {
		t.Fatalf("unscoped transactions = %d", len(full.Transactions))
	}
	opts := NewOptions()
	opts.ScopePrefix = "com.kayak."
	scoped, err := Analyze(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(scoped.Transactions) != 1 {
		t.Fatalf("scoped transactions = %d, want 1", len(scoped.Transactions))
	}
}

func TestCountHelpers(t *testing.T) {
	rep, err := Analyze(radioRedditLike(), NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := rep.CountByMethod()
	if m["POST"] != 2 {
		t.Errorf("POST count = %d", m["POST"])
	}
	_, jsonN, _ := bodyKindCounts(rep)
	if jsonN != 1 { // login's JSON response
		t.Errorf("json count = %d", jsonN)
	}
	if rep.PairCount() != 1 {
		t.Errorf("pairs = %d", rep.PairCount())
	}
}

func keys(m map[string]*Transaction) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
