package sigbuild

import (
	"strings"
	"testing"

	"extractocol/internal/callgraph"
	"extractocol/internal/ir"
	"extractocol/internal/semmodel"
	"extractocol/internal/siglang"
	"extractocol/internal/slice"
)

const (
	sbInit   = "java.lang.StringBuilder.<init>"
	sbApp    = "java.lang.StringBuilder.append"
	sbStr    = "java.lang.StringBuilder.toString"
	getInit  = "org.apache.http.client.methods.HttpGet.<init>"
	postInit = "org.apache.http.client.methods.HttpPost.<init>"
	clInit   = "org.apache.http.impl.client.DefaultHttpClient.<init>"
	execRef  = "org.apache.http.client.HttpClient.execute"
	jInit    = "org.json.JSONObject.<init>"
	jParse   = "org.json.JSONObject.parse"
	jPut     = "org.json.JSONObject.put"
	jGetStr  = "org.json.JSONObject.getString"
	jGetObj  = "org.json.JSONObject.getJSONObject"
	jGetArr  = "org.json.JSONObject.getJSONArray"
	jArrGet  = "org.json.JSONArray.getJSONObject"
	jToStr   = "org.json.JSONObject.toString"
	entCont  = "org.apache.http.util.EntityUtils.toString"
	getEnt   = "org.apache.http.HttpResponse.getEntity"
	seInit   = "org.apache.http.entity.StringEntity.<init>"
	setEnt   = "org.apache.http.client.methods.HttpPost.setEntity"
	addHdr   = "org.apache.http.client.methods.HttpPost.addHeader"
	urlEnc   = "java.net.URLEncoder.encode"
)

// analyze runs the full front half of the pipeline on the program and
// returns signatures for every transaction.
func analyze(t *testing.T, p *ir.Program) []*RequestSig {
	t.Helper()
	reqs, _ := analyzeBoth(t, p)
	return reqs
}

func analyzeBoth(t *testing.T, p *ir.Program) ([]*RequestSig, []*ResponseSig) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid program: %v", err)
	}
	model := semmodel.Default()
	cg := callgraph.Build(p, model)
	txs := slice.Find(p, model, cg, slice.Options{MaxAsyncHops: 1})
	if len(txs) == 0 {
		t.Fatal("no transactions found")
	}
	var reqs []*RequestSig
	var resps []*ResponseSig
	for _, tx := range txs {
		rq, rs, err := Build(p, model, cg, tx)
		if err != nil {
			t.Fatalf("Build tx %d: %v", tx.ID, err)
		}
		reqs = append(reqs, rq)
		resps = append(resps, rs)
	}
	return reqs, resps
}

func newApp(pkg, cls string) (*ir.Program, *ir.Class) {
	p := ir.NewProgram(pkg)
	c := p.AddClass(&ir.Class{Name: cls})
	return p, c
}

func execute(b *ir.B, req int) int {
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	return b.Invoke(execRef, cl, req)
}

func TestBranchingURIProducesDisjunction(t *testing.T) {
	// The Diode pattern (Fig. 3): prefix depends on a branch; the final
	// regex must cover both alternatives.
	p, c := newApp("t.diode", "t.diode.D")
	b := ir.NewMethod(c, "doInBackground", false, []string{"int"}, "void")
	mode := b.Param(0)
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial(sbInit, sb)
	b.IfZ(mode, "search")
	front := b.ConstStr("http://www.reddit.com/.json?")
	b.InvokeVoid(sbApp, sb, front)
	b.Goto("done")
	b.Label("search")
	s1 := b.ConstStr("http://www.reddit.com/search/.json?q=")
	b.InvokeVoid(sbApp, sb, s1)
	q := b.ConstStr("cats") // placeholder user input
	enc := b.InvokeStatic(urlEnc, q)
	b.InvokeVoid(sbApp, sb, enc)
	s2 := b.ConstStr("&sort=")
	b.InvokeVoid(sbApp, sb, s2)
	srt := b.FieldGet(b.This(), "mSortSearch")
	b.InvokeVoid(sbApp, sb, srt)
	b.Label("done")
	uri := b.Invoke(sbStr, sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, uri)
	execute(b, req)
	b.ReturnVoid()
	b.Done()
	c.Fields = []*ir.Field{{Name: "mSortSearch", Type: "java.lang.String"}}
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.diode.D.doInBackground", Kind: ir.EventClick}}

	reqs := analyze(t, p)
	if len(reqs) != 1 {
		t.Fatalf("requests = %d", len(reqs))
	}
	rq := reqs[0]
	if rq.Method != "GET" {
		t.Errorf("method = %s", rq.Method)
	}
	re, err := siglang.Compile(rq.URI)
	if err != nil {
		t.Fatalf("compile: %v (%s)", err, siglang.Canon(rq.URI))
	}
	if !re.MatchString("http://www.reddit.com/search/.json?q=cats&sort=top") {
		t.Errorf("URI regex %q rejects the search URI", siglang.Regex(rq.URI))
	}
	if !re.MatchString("http://www.reddit.com/.json?") {
		t.Errorf("URI regex %q rejects the frontpage URI", siglang.Regex(rq.URI))
	}
	if re.MatchString("http://evil.example.com/x") {
		t.Errorf("URI regex %q is over-broad", siglang.Regex(rq.URI))
	}
}

func TestJSONRequestBody(t *testing.T) {
	p, c := newApp("t.jb", "t.jb.J")
	b := ir.NewMethod(c, "login", false, []string{"java.lang.String", "java.lang.String"}, "void")
	user, pass := b.Param(0), b.Param(1)
	js := b.New("org.json.JSONObject")
	b.InvokeSpecial(jInit, js)
	ku := b.ConstStr("user")
	b.InvokeVoid(jPut, js, ku, user)
	kp := b.ConstStr("passwd")
	b.InvokeVoid(jPut, js, kp, pass)
	kt := b.ConstStr("api_type")
	tv := b.ConstStr("json")
	b.InvokeVoid(jPut, js, kt, tv)
	body := b.Invoke(jToStr, js)
	ent := b.New("org.apache.http.entity.StringEntity")
	b.InvokeSpecial(seInit, ent, body)
	u := b.ConstStr("https://ssl.example.com/api/login")
	req := b.New("org.apache.http.client.methods.HttpPost")
	b.InvokeSpecial(postInit, req, u)
	b.InvokeVoid(setEnt, req, ent)
	execute(b, req)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.jb.J.login", Kind: ir.EventLogin}}

	reqs := analyze(t, p)
	rq := reqs[0]
	if rq.Method != "POST" || rq.BodyKind != "json" {
		t.Fatalf("method=%s bodyKind=%s", rq.Method, rq.BodyKind)
	}
	j, ok := rq.Body.(*siglang.JSON)
	if !ok {
		t.Fatalf("body = %T", rq.Body)
	}
	var keys []string
	for _, kv := range j.Root.(*siglang.Obj).Pairs {
		if !kv.Dyn {
			keys = append(keys, kv.Key)
		}
	}
	if strings.Join(keys, ",") != "user,passwd,api_type" {
		t.Fatalf("body keys = %v", keys)
	}
	if v, lit := j.Root.(*siglang.Obj).Get("api_type").(*siglang.Lit); !lit || v.Val != "json" {
		t.Fatalf("api_type value = %s", siglang.Canon(j.Root.(*siglang.Obj).Get("api_type")))
	}
}

func TestQueryStringBodyViaFormEntity(t *testing.T) {
	p, c := newApp("t.q", "t.q.Q")
	b := ir.NewMethod(c, "vote", false, []string{"java.lang.String", "java.lang.String"}, "void")
	id, uh := b.Param(0), b.Param(1)
	list := b.New("java.util.ArrayList")
	b.InvokeSpecial("java.util.ArrayList.<init>", list)
	k1 := b.ConstStr("id")
	p1 := b.New("org.apache.http.message.BasicNameValuePair")
	b.InvokeSpecial("org.apache.http.message.BasicNameValuePair.<init>", p1, k1, id)
	b.InvokeVoid("java.util.ArrayList.add", list, p1)
	k2 := b.ConstStr("uh")
	p2 := b.New("org.apache.http.message.BasicNameValuePair")
	b.InvokeSpecial("org.apache.http.message.BasicNameValuePair.<init>", p2, k2, uh)
	b.InvokeVoid("java.util.ArrayList.add", list, p2)
	ent := b.New("org.apache.http.client.entity.UrlEncodedFormEntity")
	b.InvokeSpecial("org.apache.http.client.entity.UrlEncodedFormEntity.<init>", ent, list)
	u := b.ConstStr("http://www.example.com/api/vote")
	req := b.New("org.apache.http.client.methods.HttpPost")
	b.InvokeSpecial(postInit, req, u)
	b.InvokeVoid(setEnt, req, ent)
	execute(b, req)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.q.Q.vote", Kind: ir.EventClick}}

	rq := analyze(t, p)[0]
	if rq.BodyKind != "query" {
		t.Fatalf("bodyKind = %s", rq.BodyKind)
	}
	re, err := siglang.Compile(rq.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !re.MatchString("id=t3_abc&uh=hash99") {
		t.Errorf("body regex %q rejects conforming body", siglang.Regex(rq.Body))
	}
	kw := siglang.Keywords(rq.Body)
	if strings.Join(kw, ",") != "id,uh" {
		t.Errorf("keywords = %v", kw)
	}
}

func TestResponseAccessTree(t *testing.T) {
	p, c := newApp("t.r", "t.r.R")
	b := ir.NewMethod(c, "status", false, nil, "void")
	u := b.ConstStr("http://radio.example.com/api/hiphop/status.json")
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, u)
	resp := execute(b, req)
	ent := b.Invoke(getEnt, resp)
	raw := b.InvokeStatic(entCont, ent)
	js := b.InvokeStatic(jParse, raw)
	kRelay := b.ConstStr("relay")
	relay := b.Invoke(jGetStr, js, kRelay)
	kSongs := b.ConstStr("songs")
	songs := b.Invoke(jGetObj, js, kSongs)
	kSong := b.ConstStr("song")
	arr := b.Invoke(jGetArr, songs, kSong)
	zero := b.ConstInt(0)
	song := b.Invoke(jArrGet, arr, zero)
	kArtist := b.ConstStr("artist")
	b.Invoke(jGetStr, song, kArtist)
	mp := b.New("android.media.MediaPlayer")
	b.InvokeVoid("android.media.MediaPlayer.setDataSource", mp, relay)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.r.R.status", Kind: ir.EventClick}}

	_, resps := analyzeBoth(t, p)
	// Two transactions: the HTTP GET and the MediaPlayer fetch.
	var httpResp *ResponseSig
	for _, rs := range resps {
		if rs != nil && rs.BodyKind == "json" {
			httpResp = rs
		}
	}
	if httpResp == nil {
		t.Fatal("no JSON response signature")
	}
	kw := siglang.Keywords(&siglang.JSON{Root: httpResp.JSON})
	want := []string{"artist", "relay", "song", "songs"}
	if strings.Join(kw, ",") != strings.Join(want, ",") {
		t.Fatalf("response keywords = %v, want %v", kw, want)
	}
}

func TestLoopAppendWidensToRep(t *testing.T) {
	p, c := newApp("t.l", "t.l.L")
	b := ir.NewMethod(c, "list", false, []string{"int"}, "void")
	n := b.Param(0)
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial(sbInit, sb)
	base := b.ConstStr("https://api.example.com/batch?")
	b.InvokeVoid(sbApp, sb, base)
	b.Label("head")
	b.IfZ(n, "exit")
	amp := b.ConstStr("&id=")
	b.InvokeVoid(sbApp, sb, amp)
	b.InvokeVoid(sbApp, sb, n)
	one := b.ConstInt(1)
	dec := b.Binop("-", n, one)
	b.MoveTo(n, dec)
	b.Goto("head")
	b.Label("exit")
	uri := b.Invoke(sbStr, sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, uri)
	execute(b, req)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.l.L.list", Kind: ir.EventClick}}

	rq := analyze(t, p)[0]
	canon := siglang.Canon(rq.URI)
	if !strings.Contains(canon, "rep{") {
		t.Fatalf("loop-built URI lacks repetition: %s", canon)
	}
	re, err := siglang.Compile(rq.URI)
	if err != nil {
		t.Fatal(err)
	}
	for _, uri := range []string{
		"https://api.example.com/batch?",
		"https://api.example.com/batch?&id=3&id=2&id=1",
	} {
		if !re.MatchString(uri) {
			t.Errorf("regex %q rejects %q", siglang.Regex(rq.URI), uri)
		}
	}
}

func TestResourceConstantFoldsIntoURI(t *testing.T) {
	p, c := newApp("t.res", "t.res.T")
	p.Resources["api_key"] = "TED-API-KEY-42"
	b := ir.NewMethod(c, "speakers", false, nil, "void")
	resObj := b.New("android.content.res.Resources")
	kn := b.ConstStr("api_key")
	key := b.Invoke("android.content.res.Resources.getString", resObj, kn)
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial(sbInit, sb)
	pre := b.ConstStr("https://api.ted.com/v1/speakers.json?api-key=")
	b.InvokeVoid(sbApp, sb, pre)
	b.InvokeVoid(sbApp, sb, key)
	uri := b.Invoke(sbStr, sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, uri)
	execute(b, req)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.res.T.speakers", Kind: ir.EventCreate}}

	rq := analyze(t, p)[0]
	lit, ok := rq.URI.(*siglang.Lit)
	if !ok {
		t.Fatalf("URI = %s, want fully constant", siglang.Canon(rq.URI))
	}
	if lit.Val != "https://api.ted.com/v1/speakers.json?api-key=TED-API-KEY-42" {
		t.Fatalf("URI = %q", lit.Val)
	}
	found := false
	for _, d := range rq.URIDeps {
		if d == "res:api_key" {
			found = true
		}
	}
	if !found {
		t.Errorf("URIDeps = %v, want res:api_key", rq.URIDeps)
	}
}

func TestHeadersExtracted(t *testing.T) {
	p, c := newApp("t.h", "t.h.H")
	b := ir.NewMethod(c, "call", false, nil, "void")
	u := b.ConstStr("https://www.kayak.example/k/authajax")
	req := b.New("org.apache.http.client.methods.HttpPost")
	b.InvokeSpecial(postInit, req, u)
	hk := b.ConstStr("User-Agent")
	hv := b.ConstStr("kayakandroidphone/8.1")
	b.InvokeVoid(addHdr, req, hk, hv)
	execute(b, req)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.h.H.call", Kind: ir.EventCreate}}

	rq := analyze(t, p)[0]
	if len(rq.Headers) != 1 || rq.Headers[0].Key != "User-Agent" {
		t.Fatalf("headers = %+v", rq.Headers)
	}
	if l, ok := rq.Headers[0].Val.(*siglang.Lit); !ok || l.Val != "kayakandroidphone/8.1" {
		t.Fatalf("header value = %s", siglang.Canon(rq.Headers[0].Val))
	}
}

func TestGsonReflectionResponse(t *testing.T) {
	p, c := newApp("t.g", "t.g.G")
	p.AddClass(&ir.Class{Name: "t.g.Talk", Fields: []*ir.Field{
		{Name: "title", Type: "java.lang.String"},
		{Name: "duration", Type: "int"},
		{Name: "media", Type: "t.g.Media"},
	}})
	p.AddClass(&ir.Class{Name: "t.g.Media", Fields: []*ir.Field{
		{Name: "url", Type: "java.lang.String"},
	}})
	b := ir.NewMethod(c, "load", false, nil, "void")
	u := b.ConstStr("https://api.ted.example/v1/talks.json")
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, u)
	resp := execute(b, req)
	ent := b.Invoke(getEnt, resp)
	raw := b.InvokeStatic(entCont, ent)
	gson := b.New("com.google.gson.Gson")
	clsName := b.ConstStr("t.g.Talk")
	talk := b.Invoke("com.google.gson.Gson.fromJson", gson, raw, clsName)
	b.FieldGet(talk, "title")
	media := b.FieldGet(talk, "media")
	b.FieldGet(media, "url")
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.g.G.load", Kind: ir.EventCreate}}

	_, resps := analyzeBoth(t, p)
	rs := resps[0]
	if rs == nil || rs.BodyKind != "json" {
		t.Fatalf("response = %+v", rs)
	}
	kw := siglang.Keywords(&siglang.JSON{Root: rs.JSON})
	want := "media,title,url"
	if strings.Join(kw, ",") != want {
		t.Fatalf("gson keywords = %v, want %s", kw, want)
	}
}

func TestInterTransactionProvenanceThroughDB(t *testing.T) {
	// TED pattern: transaction 1 stores a thumbnail URI from its JSON
	// response into the DB; transaction 2 requests whatever the DB holds.
	p, c := newApp("t.db", "t.db.T")
	b := ir.NewMethod(c, "sync", false, nil, "void")
	u := b.ConstStr("https://api.ted.example/v1/talks.json")
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, u)
	resp := execute(b, req)
	ent := b.Invoke(getEnt, resp)
	raw := b.InvokeStatic(entCont, ent)
	js := b.InvokeStatic(jParse, raw)
	kThumb := b.ConstStr("thumb_url")
	thumb := b.Invoke(jGetStr, js, kThumb)
	cv := b.New("android.content.ContentValues")
	b.InvokeSpecial("android.content.ContentValues.<init>", cv)
	col := b.ConstStr("thumbnail")
	b.InvokeVoid("android.content.ContentValues.put", cv, col, thumb)
	db := b.New("android.database.sqlite.SQLiteDatabase")
	tbl := b.ConstStr("talks")
	b.InvokeVoid("android.database.sqlite.SQLiteDatabase.insert", db, tbl, cv)
	b.ReturnVoid()
	b.Done()

	b2 := ir.NewMethod(c, "showThumb", false, nil, "void")
	db2 := b2.New("android.database.sqlite.SQLiteDatabase")
	tbl2 := b2.ConstStr("talks")
	col2 := b2.ConstStr("thumbnail")
	turi := b2.Invoke("android.database.sqlite.SQLiteDatabase.query", db2, tbl2, col2)
	req2 := b2.New("org.apache.http.client.methods.HttpGet")
	b2.InvokeSpecial(getInit, req2, turi)
	execute(b2, req2)
	b2.ReturnVoid()
	b2.Done()

	p.Manifest.EntryPoints = []ir.EntryPoint{
		{Method: "t.db.T.sync", Kind: ir.EventCreate},
		{Method: "t.db.T.showThumb", Kind: ir.EventClick},
	}

	reqs, resps := analyzeBoth(t, p)
	var syncResp *ResponseSig
	var thumbReq *RequestSig
	for i, rq := range reqs {
		if resps[i] != nil && resps[i].BodyKind == "json" {
			syncResp = resps[i]
		}
		if _, isLit := rq.URI.(*siglang.Lit); !isLit {
			thumbReq = rq
		}
	}
	if syncResp == nil {
		t.Fatal("sync response missing")
	}
	if path, ok := syncResp.WriteOrigins["db:talks.thumbnail"]; !ok || path != "thumb_url" {
		t.Fatalf("WriteOrigins = %v", syncResp.WriteOrigins)
	}
	if thumbReq == nil {
		t.Fatal("thumbnail request missing")
	}
	found := false
	for _, d := range thumbReq.URIDeps {
		if d == "db:talks.thumbnail" {
			found = true
		}
	}
	if !found {
		t.Fatalf("thumb URIDeps = %v", thumbReq.URIDeps)
	}
}

func TestDynamicURIFromPriorResponse(t *testing.T) {
	// TED transaction #4: the ad URI comes directly from transaction #3's
	// response within the same handler.
	p, c := newApp("t.ad", "t.ad.A")
	b := ir.NewMethod(c, "ads", false, nil, "void")
	u := b.ConstStr("https://api.ted.example/v1/ad.json")
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, u)
	resp := execute(b, req)
	ent := b.Invoke(getEnt, resp)
	raw := b.InvokeStatic(entCont, ent)
	js := b.InvokeStatic(jParse, raw)
	kURL := b.ConstStr("url")
	adURL := b.Invoke(jGetStr, js, kURL)
	req2 := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req2, adURL)
	execute(b, req2)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.ad.A.ads", Kind: ir.EventClick}}

	reqs := analyze(t, p)
	if len(reqs) != 2 {
		t.Fatalf("requests = %d, want 2", len(reqs))
	}
	var dyn *RequestSig
	for _, rq := range reqs {
		if _, isLit := rq.URI.(*siglang.Lit); !isLit {
			dyn = rq
		}
	}
	if dyn == nil {
		t.Fatal("dynamic request not found")
	}
	hasDP := false
	for _, d := range dyn.URIDeps {
		if strings.HasPrefix(d, "dp:") && strings.HasSuffix(d, ":url") {
			hasDP = true
		}
	}
	if !hasDP {
		t.Fatalf("URIDeps = %v, want dp:...:url", dyn.URIDeps)
	}
}
