package corpus

import (
	"extractocol/internal/httpsim"
	"extractocol/internal/ir"
)

// Diode builds the paper's running example (Fig. 3): an open-source Reddit
// client whose doInBackground builds one of nine URI patterns depending on
// the selected subreddit and paging state, then executes the request and
// parses the subreddit JSON. Table 1 reports 24 unique GET signatures and
// 5 reconstructed pairs; the Fig. 3 task is one of them, the rest are
// plain browse endpoints.
func Diode() *App {
	spec := AppSpec{
		Name: "Diode", Package: "in.shick.diode", Host: "api.diode.example",
		OpenSource: true, Protocol: "HTTP(S)", Library: "apache", Handwritten: true,
		Counts:     map[string]MethodCounts{"GET": {E: 23, M: 23, A: 23}},
		JSONBodies: 2, Pairs: 5,
		Ballast: 480,
	}
	txs := planTransactions(spec)
	prog, baseNet := buildProgram(spec, txs)
	truth := deriveTruth(spec, txs)

	addDiodeTask(prog)
	truth.ByMethod["GET"]++
	truth.StaticVis["GET"]++
	truth.ManualVis["GET"]++
	truth.AutoVis["GET"]++
	truth.JSONBodies++
	truth.Pairs++

	newNet := func() *httpsim.Network {
		n := baseNet()
		s := httpsim.NewServer("www.reddit.com")
		listing := func(r *httpsim.Request) *httpsim.Response {
			return httpsim.JSON(`{"kind":"Listing","data":{"after":"t3_next","children":[` +
				`{"kind":"t3","data":{"title":"post","author":"u1","score":12,"permalink":"/r/x/1"}}]}}`)
		}
		s.HandlePrefix("GET", "/", listing)
		n.Register(s)
		return n
	}
	return &App{Spec: specNamed(spec, "Diode"), Prog: prog, NewNetwork: newNet, Truth: truth}
}

func specNamed(s AppSpec, name string) AppSpec {
	s.Name = name
	return s
}

// addDiodeTask emits the Fig. 3 DownloadThreadsTask: nine URI shapes from
// two sequential three-way branches, followed by execute and JSON parsing.
func addDiodeTask(p *ir.Program) {
	task := p.AddClass(&ir.Class{
		Name:  "in.shick.diode.DownloadThreadsTask",
		Super: "android.os.AsyncTask",
		Fields: []*ir.Field{
			{Name: "mSubreddit", Type: "java.lang.String"},
			{Name: "mSortByUrl", Type: "java.lang.String"},
			{Name: "mSortByUrlExtra", Type: "java.lang.String"},
			{Name: "mSearchQuery", Type: "java.lang.String"},
			{Name: "mSortSearch", Type: "java.lang.String"},
			{Name: "mAfter", Type: "java.lang.String"},
			{Name: "mBefore", Type: "java.lang.String"},
			{Name: "mCount", Type: "int"},
		},
	})

	b := ir.NewMethod(task, "doInBackground", false, nil, "java.lang.String")
	this := b.This()
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial("java.lang.StringBuilder.<init>", sb)

	sub := b.FieldGet(this, "mSubreddit")
	front := b.ConstStr("frontpage")
	isFront := b.Invoke("java.lang.String.equals", sub, front)
	b.IfNZ(isFront, "frontpage")
	searchK := b.ConstStr("search")
	isSearch := b.Invoke("java.lang.String.equals", sub, searchK)
	b.IfNZ(isSearch, "search")

	// else: /r/<subreddit>/<sort>.json?&
	r1 := b.ConstStr("http://www.reddit.com/r/")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, r1)
	trimmed := b.Invoke("java.lang.String.trim", sub)
	b.InvokeVoid("java.lang.StringBuilder.append", sb, trimmed)
	r2 := b.ConstStr("/")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, r2)
	sortBy := b.FieldGet(this, "mSortByUrl")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, sortBy)
	r3 := b.ConstStr(".json?")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, r3)
	r4 := b.ConstStr("&")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, r4)
	b.Goto("paging")

	b.Label("frontpage")
	f1 := b.ConstStr("http://www.reddit.com/")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, f1)
	sortBy2 := b.FieldGet(this, "mSortByUrl")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, sortBy2)
	f2 := b.ConstStr(".json?")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, f2)
	extra := b.FieldGet(this, "mSortByUrlExtra")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, extra)
	f3 := b.ConstStr("&")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, f3)
	b.Goto("paging")

	b.Label("search")
	s1 := b.ConstStr("http://www.reddit.com/search/.json?q=")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, s1)
	q := b.FieldGet(this, "mSearchQuery")
	encQ := b.InvokeStatic("java.net.URLEncoder.encode", q)
	b.InvokeVoid("java.lang.StringBuilder.append", sb, encQ)
	s2 := b.ConstStr("&sort=")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, s2)
	srt := b.FieldGet(this, "mSortSearch")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, srt)

	b.Label("paging")
	after := b.FieldGet(this, "mAfter")
	b.IfZ(after, "maybeBefore")
	p1 := b.ConstStr("count=")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, p1)
	cnt := b.FieldGet(this, "mCount")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, cnt)
	p2 := b.ConstStr("&after=")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, p2)
	b.InvokeVoid("java.lang.StringBuilder.append", sb, after)
	p3 := b.ConstStr("&")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, p3)
	b.Goto("send")

	b.Label("maybeBefore")
	before := b.FieldGet(this, "mBefore")
	b.IfZ(before, "send")
	q1 := b.ConstStr("count=")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, q1)
	cnt2 := b.FieldGet(this, "mCount")
	one := b.ConstInt(1)
	limit := b.ConstInt(25) // Constants.DEFAULT_THREAD_DOWNLOAD_LIMIT
	tmp := b.Binop("+", cnt2, one)
	adj := b.Binop("-", tmp, limit)
	b.InvokeVoid("java.lang.StringBuilder.append", sb, adj)
	q2 := b.ConstStr("&before=")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, q2)
	b.InvokeVoid("java.lang.StringBuilder.append", sb, before)
	q3 := b.ConstStr("&")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, q3)

	b.Label("send")
	uri := b.Invoke("java.lang.StringBuilder.toString", sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial("org.apache.http.client.methods.HttpGet.<init>", req, uri)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial("org.apache.http.impl.client.DefaultHttpClient.<init>", cl)
	resp := b.Invoke("org.apache.http.client.HttpClient.execute", cl, req)
	ent := b.Invoke("org.apache.http.HttpResponse.getEntity", resp)
	raw := b.InvokeStatic("org.apache.http.util.EntityUtils.toString", ent)

	// parseSubredditJSON
	js := b.InvokeStatic("org.json.JSONObject.parse", raw)
	kData := b.ConstStr("data")
	data := b.Invoke("org.json.JSONObject.getJSONObject", js, kData)
	kAfter := b.ConstStr("after")
	newAfter := b.Invoke("org.json.JSONObject.getString", data, kAfter)
	b.FieldPut(this, "mAfter", newAfter)
	kChildren := b.ConstStr("children")
	children := b.Invoke("org.json.JSONObject.getJSONArray", data, kChildren)
	zero := b.ConstInt(0)
	child := b.Invoke("org.json.JSONArray.getJSONObject", children, zero)
	kCD := b.ConstStr("data")
	cd := b.Invoke("org.json.JSONObject.getJSONObject", child, kCD)
	kTitle := b.ConstStr("title")
	b.Invoke("org.json.JSONObject.getString", cd, kTitle)
	kAuthor := b.ConstStr("author")
	b.Invoke("org.json.JSONObject.getString", cd, kAuthor)
	b.Return(raw)
	b.Done()

	// The click handler configures the task from user input and runs it.
	main := p.AddClass(&ir.Class{Name: "in.shick.diode.ThreadsListActivity"})
	h := ir.NewMethod(main, "onClickRefresh", false,
		[]string{"java.lang.String", "java.lang.String", "java.lang.String"}, "void")
	t := h.New("in.shick.diode.DownloadThreadsTask")
	h.InvokeSpecial("in.shick.diode.DownloadThreadsTask.<init>", t)
	h.FieldPut(t, "mSubreddit", h.Param(0))
	h.FieldPut(t, "mSortByUrl", h.Param(1))
	h.FieldPut(t, "mSearchQuery", h.Param(2))
	h.FieldPut(t, "mSortSearch", h.Param(1))
	extraDef := h.ConstStr("")
	h.FieldPut(t, "mSortByUrlExtra", extraDef)
	cntDef := h.ConstInt(25)
	h.FieldPut(t, "mCount", cntDef)
	h.InvokeVoid("android.os.AsyncTask.execute", t)
	h.ReturnVoid()
	h.Done()

	p.Manifest.EntryPoints = append(p.Manifest.EntryPoints, ir.EntryPoint{
		Method: "in.shick.diode.ThreadsListActivity.onClickRefresh",
		Kind:   ir.EventClick, Label: "refresh",
	})
}

// DiodeFigure3URIs returns sample URIs that the Fig. 3 signature must
// accept, used by tests and the quickstart example.
func DiodeFigure3URIs() []string {
	return []string{
		"http://www.reddit.com/search/.json?q=cats&sort=top",
		"http://www.reddit.com/hot.json?&",
		"http://www.reddit.com/r/golang/new.json?&",
		"http://www.reddit.com/r/golang/new.json?&count=25&after=t3_abc&",
	}
}
