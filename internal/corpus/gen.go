package corpus

import (
	"fmt"
	"strings"

	"extractocol/internal/httpsim"
	"extractocol/internal/ir"
	"extractocol/internal/obfuscate"
)

// TxSpec describes one generated transaction.
type TxSpec struct {
	ID        int
	Method    string
	Path      string
	QueryKeys []string // URI query-string keys (values are user input)
	BodyKind  string   // "", "query", "json"
	BodyKeys  []string
	RespKind  string // "", "json", "xml"
	RespKeys  []string
	Trait     ir.EventKind
	// StoreField persists the first response key into a static field;
	// UseField appends a value read from that field to the request,
	// creating an inter-transaction dependency.
	StoreField string
	UseField   string

	// Scenario marks protocol-surface extensions: "gzip" and "chunked"
	// (framed response bodies read through stream decorators), "multipart"
	// (form-data upload), "cookie"/"token" (session headers), "paginate"
	// (cursor threaded through the URI). Empty is a plain transaction.
	Scenario string
	// UsePart places UseField's value: "" or "body" (last body value),
	// "header" (request header HeaderName), "uri" (query-string cursor).
	UsePart    string
	HeaderName string
	// Library overrides the app-wide HTTP stack for this transaction
	// ("" keeps the app's library).
	Library string
}

// fieldInBody reports whether UseField substitutes the last body value.
func (t TxSpec) fieldInBody() bool {
	return t.UseField != "" && (t.UsePart == "" || t.UsePart == "body")
}

// Generate builds a corpus app from its spec.
func Generate(spec AppSpec) *App {
	txs := planTransactions(spec)
	prog, newNet := buildProgram(spec, txs)
	if spec.Obfuscated {
		obfuscate.Apply(prog)
	}
	return &App{Spec: spec, Prog: prog, NewNetwork: newNet, Truth: deriveTruth(spec, txs)}
}

// planTransactions expands the Table 1 cell counts into transaction specs
// with reachability traits.
func planTransactions(spec AppSpec) []TxSpec {
	r := newRng(spec.Package)
	var txs []TxSpec
	usedPaths := map[string]bool{}

	pathFor := func(method string, i int) string {
		for {
			p := fmt.Sprintf("/api/%s/%s", r.pick(resourceWords), r.pick(resourceWords))
			if i%3 == 0 {
				p = fmt.Sprintf("/v%d/%s", 1+r.intn(3), r.pick(resourceWords))
			}
			key := method + " " + p
			if !usedPaths[key] {
				usedPaths[key] = true
				return p
			}
		}
	}

	type slot struct {
		method string
		trait  ir.EventKind
	}
	var slots []slot
	unfuzzable := []ir.EventKind{ir.EventTimer, ir.EventServerPush, ir.EventAction}
	hidden := []ir.EventKind{ir.EventCustomUI, ir.EventLogin}
	// Determinism invariant: spec.Counts is a map, so it is never ranged —
	// verbs iterate in this fixed order and the map is only indexed. Every
	// rng draw downstream depends on ordered state alone; same-seed corpora
	// must stay byte-identical across runs and platforms (the differential
	// harness's regeneration axis and TestGenProgramsDeterministic enforce
	// this).
	for _, method := range []string{"GET", "POST", "PUT", "DELETE"} {
		c, ok := spec.Counts[method]
		if !ok {
			continue
		}
		total := c.Total()
		missStatic := total - c.E // intent-triggered
		missManual := total - c.M // timers / pushes / side effects
		auto := c.A
		if spec.OpenSource {
			// The third cell is source-code analysis for open-source apps;
			// all transactions are plainly clickable.
			auto = c.M - missStatic
		}
		overlap := c.E + c.M - total // visible to both static and manual
		if auto > overlap {
			auto = overlap
		}
		rest := overlap - auto
		idx := 0
		for i := 0; i < missStatic; i++ {
			slots = append(slots, slot{method, ir.EventIntent})
		}
		for i := 0; i < missManual; i++ {
			slots = append(slots, slot{method, unfuzzable[idx%len(unfuzzable)]})
			idx++
		}
		for i := 0; i < auto; i++ {
			k := ir.EventClick
			if i == 0 && method == "GET" {
				k = ir.EventCreate
			}
			slots = append(slots, slot{method, k})
		}
		for i := 0; i < rest; i++ {
			slots = append(slots, slot{method, hidden[i%len(hidden)]})
		}
	}

	// Distribute body kinds. Request bodies go to non-GET transactions;
	// responses fill the pair quota, some as XML. Quotas are offered to
	// statically visible transactions first: intent-triggered flows (which
	// only manual fuzzing sees) take leftovers, so reconstructed-pair
	// counts reflect what the analyzer can actually pair.
	order := make([]int, 0, len(slots))
	for i, s := range slots {
		if s.trait != ir.EventIntent {
			order = append(order, i)
		}
	}
	for i, s := range slots {
		if s.trait == ir.EventIntent {
			order = append(order, i)
		}
	}
	txAt := make([]TxSpec, len(slots))
	queryQuota, jsonQuota, xmlQuota, pairQuota := spec.QueryBodies, spec.JSONBodies, spec.XMLBodies, spec.Pairs
	for _, i := range order {
		s := slots[i]
		tx := TxSpec{
			ID:     i + 1,
			Method: s.method,
			Path:   pathFor(s.method, i),
			Trait:  s.trait,
		}
		// URI query keys on roughly half the GETs.
		if s.method == "GET" && i%2 == 0 {
			tx.QueryKeys = pickKeys(r, keyWords, 1+r.intn(3))
		}
		if s.method != "GET" {
			switch {
			case queryQuota > 0 && spec.Library != "volley":
				// Volley delivers bodies as JSON objects; form-encoded
				// bodies are an apache/urlconn/okhttp idiom.
				queryQuota--
				tx.BodyKind = "query"
				tx.BodyKeys = pickKeys(r, keyWords, 2+r.intn(3))
			default:
				tx.BodyKind = "json"
				tx.BodyKeys = pickKeys(r, keyWords, 2+r.intn(4))
			}
		}
		switch {
		case xmlQuota > 0 && pairQuota > 0:
			xmlQuota--
			pairQuota--
			tx.RespKind = "xml"
			tx.RespKeys = pickKeys(r, respWords, 2+r.intn(3))
		case pairQuota > 0 && (jsonQuota > 0 || tx.BodyKind != "json"):
			pairQuota--
			if jsonQuota > 0 {
				jsonQuota--
			}
			tx.RespKind = "json"
			tx.RespKeys = pickKeys(r, respWords, 2+r.intn(4))
		}
		txAt[i] = tx
	}
	txs = append(txs, txAt...)

	// Inter-transaction dependency: the first paired transaction stores a
	// session token; later non-GET requests reuse it.
	storeIdx := -1
	for i := range txs {
		if txs[i].RespKind == "json" {
			storeIdx = i
			txs[i].StoreField = "session"
			break
		}
	}
	if storeIdx >= 0 {
		for i := storeIdx + 1; i < len(txs); i++ {
			if txs[i].Method != "GET" && i%4 == 0 {
				txs[i].UseField = "session"
			}
		}
	}
	txs = append(txs, planScenarios(spec, r, len(txs))...)
	return txs
}

// planScenarios expands spec.Scenarios into additional transactions
// exercising the widened protocol surface. The 34 Table 1 specs never set
// Scenarios, so their output is unchanged; the generative corpus draws
// freely from the scenario list.
func planScenarios(spec AppSpec, r *rng, startID int) []TxSpec {
	// Header-carrying and body-building idioms need an explicitly modeled
	// header API; volley has none, so scenario transactions pin a library.
	headerLibs := []string{"apache", "urlconn", "okhttp"}
	var out []TxSpec
	add := func(tx TxSpec) {
		tx.ID = startID + len(out) + 1
		tx.Trait = ir.EventClick
		out = append(out, tx)
	}
	for _, sc := range spec.Scenarios {
		switch sc {
		case "gzip":
			add(TxSpec{Method: "GET", Path: "/gz/" + r.pick(resourceWords),
				Scenario: "gzip", Library: "urlconn",
				RespKind: "json", RespKeys: pickKeys(r, respWords, 2+r.intn(2))})
		case "chunked":
			add(TxSpec{Method: "GET", Path: "/stream/" + r.pick(resourceWords),
				Scenario: "chunked", Library: "urlconn",
				RespKind: "json", RespKeys: pickKeys(r, respWords, 2+r.intn(2))})
		case "multipart":
			add(TxSpec{Method: "POST", Path: "/upload/" + r.pick(resourceWords),
				Scenario: "multipart", Library: "apache",
				BodyKind: "multipart", BodyKeys: pickKeys(r, keyWords, 2+r.intn(2)),
				RespKind: "json", RespKeys: pickKeys(r, respWords, 2)})
		case "cookie":
			add(TxSpec{Method: "POST", Path: "/account/login",
				Scenario: "cookie", Library: "apache",
				BodyKind: "query", BodyKeys: []string{"user", "password"},
				RespKind: "json", RespKeys: append([]string{"session_id"}, pickKeys(r, respWords, 1)...),
				StoreField: "cookieSid"})
			add(TxSpec{Method: "GET", Path: "/account/" + r.pick(resourceWords),
				Scenario: "cookie", Library: headerLibs[r.intn(len(headerLibs))],
				UseField: "cookieSid", UsePart: "header", HeaderName: "Cookie",
				RespKind: "json", RespKeys: pickKeys(r, respWords, 2)})
		case "token":
			// OAuth-style refresh chain: obtain, spend (as a header), refresh
			// (the stale token travels in the body and is re-stored).
			add(TxSpec{Method: "POST", Path: "/oauth/token",
				Scenario: "token", Library: "apache",
				BodyKind: "query", BodyKeys: []string{"client_id", "client_secret"},
				RespKind: "json", RespKeys: []string{"access_token", "expires"},
				StoreField: "accessToken"})
			add(TxSpec{Method: "GET", Path: "/secure/" + r.pick(resourceWords),
				Scenario: "token", Library: headerLibs[r.intn(len(headerLibs))],
				UseField: "accessToken", UsePart: "header", HeaderName: "Authorization",
				RespKind: "json", RespKeys: pickKeys(r, respWords, 2)})
			add(TxSpec{Method: "POST", Path: "/oauth/refresh",
				Scenario: "token", Library: "apache",
				BodyKind: "query", BodyKeys: []string{"grant_type", "refresh_token"},
				UseField: "accessToken", UsePart: "body",
				RespKind: "json", RespKeys: []string{"access_token", "expires"},
				StoreField: "accessToken"})
		case "longpoll":
			// Long-polling: the client GETs /poll/ with a server-side wait
			// bound and re-arms itself after every response; the handler's
			// self-invocation forms the retry loop.
			add(TxSpec{Method: "GET", Path: "/poll/" + r.pick(resourceWords),
				Scenario: "longpoll", Library: headerLibs[r.intn(len(headerLibs))],
				QueryKeys: []string{"timeout"},
				RespKind:  "json", RespKeys: append([]string{"event"}, pickKeys(r, respWords, 1)...)})
		case "paginate":
			add(TxSpec{Method: "GET", Path: "/list/" + r.pick(resourceWords),
				Scenario: "paginate", Library: headerLibs[r.intn(len(headerLibs))],
				QueryKeys: []string{"limit"},
				RespKind:  "json", RespKeys: append([]string{"next_page"}, pickKeys(r, respWords, 1)...),
				StoreField: "pageCursor"})
			add(TxSpec{Method: "GET", Path: "/page/" + r.pick(resourceWords),
				Scenario: "paginate", Library: headerLibs[r.intn(len(headerLibs))],
				UseField: "pageCursor", UsePart: "uri",
				RespKind: "json", RespKeys: pickKeys(r, respWords, 2)})
		}
	}
	return out
}

func pickKeys(r *rng, words []string, n int) []string {
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		w := r.pick(words)
		// Most protocol keys are endpoint-specific in real apps; suffix a
		// second noun so the corpus vocabulary is wide enough that every
		// transaction contributes distinct keywords (Fig. 7 depends on it).
		if r.intn(3) > 0 {
			w = w + "_" + r.pick(resourceWords)
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func deriveTruth(spec AppSpec, txs []TxSpec) Truth {
	t := Truth{
		ByMethod:  map[string]int{},
		StaticVis: map[string]int{},
		ManualVis: map[string]int{},
		AutoVis:   map[string]int{},
	}
	for _, tx := range txs {
		t.ByMethod[tx.Method]++
		if tx.Trait != ir.EventIntent {
			t.StaticVis[tx.Method]++
		}
		switch tx.Trait {
		case ir.EventCreate, ir.EventClick, ir.EventCustomUI, ir.EventLogin,
			ir.EventLocation, ir.EventIntent:
			t.ManualVis[tx.Method]++
		}
		if !spec.Gated && (tx.Trait == ir.EventCreate || tx.Trait == ir.EventClick) {
			t.AutoVis[tx.Method]++
		}
		switch tx.BodyKind {
		case "query":
			t.QueryBodies++
		case "json":
			t.JSONBodies++
		}
		switch tx.RespKind {
		case "json":
			t.JSONBodies++
			t.Pairs++
		case "xml":
			t.XMLBodies++
			t.Pairs++
		}
	}
	return t
}

// buildProgram emits the IR application and its server factory.
func buildProgram(spec AppSpec, txs []TxSpec) (*ir.Program, func() *httpsim.Network) {
	p := ir.NewProgram(spec.Package)
	p.Manifest.AppName = spec.Name
	cls := p.AddClass(&ir.Class{Name: spec.Package + ".App"})

	scheme := "https"
	if spec.Protocol == "HTTP" {
		scheme = "http"
	}
	base := scheme + "://" + spec.Host

	for _, tx := range txs {
		emitTransaction(p, cls, spec, base, tx)
	}
	ballast := spec.Ballast
	if ballast == 0 {
		ballast = 2*len(txs) + 10
	}
	emitBallast(p, cls, ballast, newRng(spec.Package+"/ballast"))
	if spec.Gated {
		// The custom-drawn first screen: an entry PUMA cannot pass.
		g := ir.NewMethod(cls, "onCustomGate", false, nil, "void")
		g.ReturnVoid()
		g.Done()
		p.Manifest.EntryPoints = append([]ir.EntryPoint{{
			Method: cls.Name + ".onCustomGate", Kind: ir.EventCustomUI, Label: "ui_gate",
		}}, p.Manifest.EntryPoints...)
	}

	newNet := func() *httpsim.Network {
		n := httpsim.NewNetwork()
		s := httpsim.NewServer(spec.Host)
		for _, tx := range txs {
			registerRoute(s, tx)
		}
		n.Register(s)
		return n
	}
	return p, newNet
}

// emitTransaction writes one handler method + entry point implementing tx.
func emitTransaction(p *ir.Program, cls *ir.Class, spec AppSpec, base string, tx TxSpec) {
	name := fmt.Sprintf("onTx%d", tx.ID)
	library := spec.Library
	if tx.Library != "" {
		library = tx.Library
	}
	var params []string
	for range tx.QueryKeys {
		params = append(params, "java.lang.String")
	}
	for range tx.BodyKeys {
		params = append(params, "java.lang.String")
	}
	b := ir.NewMethod(cls, name, false, params, "void")

	// URI construction.
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial("java.lang.StringBuilder.<init>", sb)
	first := b.ConstStr(base + tx.Path)
	b.InvokeVoid("java.lang.StringBuilder.append", sb, first)
	for i, k := range tx.QueryKeys {
		sep := "?"
		if i > 0 {
			sep = "&"
		}
		ks := b.ConstStr(sep + k + "=")
		b.InvokeVoid("java.lang.StringBuilder.append", sb, ks)
		enc := b.InvokeStatic("java.net.URLEncoder.encode", b.Param(i))
		b.InvokeVoid("java.lang.StringBuilder.append", sb, enc)
	}
	if tx.UseField != "" && tx.UsePart == "uri" {
		sep := "?"
		if len(tx.QueryKeys) > 0 {
			sep = "&"
		}
		ks := b.ConstStr(sep + "cursor=")
		b.InvokeVoid("java.lang.StringBuilder.append", sb, ks)
		fv := b.StaticGet(cls.Name + "." + tx.UseField)
		b.InvokeVoid("java.lang.StringBuilder.append", sb, fv)
	}
	uri := b.Invoke("java.lang.StringBuilder.toString", sb)

	// Request body.
	bodyReg := ir.NoReg
	switch tx.BodyKind {
	case "query":
		list := b.New("java.util.ArrayList")
		b.InvokeSpecial("java.util.ArrayList.<init>", list)
		for i, k := range tx.BodyKeys {
			kr := b.ConstStr(k)
			var vr int
			if tx.fieldInBody() && i == len(tx.BodyKeys)-1 {
				vr = b.StaticGet(cls.Name + "." + tx.UseField)
			} else {
				vr = b.Param(len(tx.QueryKeys) + i)
			}
			pair := b.New("org.apache.http.message.BasicNameValuePair")
			b.InvokeSpecial("org.apache.http.message.BasicNameValuePair.<init>", pair, kr, vr)
			b.InvokeVoid("java.util.ArrayList.add", list, pair)
		}
		ent := b.New("org.apache.http.client.entity.UrlEncodedFormEntity")
		b.InvokeSpecial("org.apache.http.client.entity.UrlEncodedFormEntity.<init>", ent, list)
		bodyReg = ent
	case "json":
		js := b.New("org.json.JSONObject")
		b.InvokeSpecial("org.json.JSONObject.<init>", js)
		for i, k := range tx.BodyKeys {
			kr := b.ConstStr(k)
			var vr int
			if tx.fieldInBody() && i == len(tx.BodyKeys)-1 {
				vr = b.StaticGet(cls.Name + "." + tx.UseField)
			} else {
				vr = b.Param(len(tx.QueryKeys) + i)
			}
			b.InvokeVoid("org.json.JSONObject.put", js, kr, vr)
		}
		if library == "volley" {
			bodyReg = js // volley takes the JSONObject itself
		} else {
			raw := b.Invoke("org.json.JSONObject.toString", js)
			ent := b.New("org.apache.http.entity.StringEntity")
			b.InvokeSpecial("org.apache.http.entity.StringEntity.<init>", ent, raw)
			bodyReg = ent
		}
	case "multipart":
		mb := b.InvokeStatic("org.apache.http.entity.mime.MultipartEntityBuilder.create")
		for i, k := range tx.BodyKeys {
			kr := b.ConstStr(k)
			var vr int
			if tx.fieldInBody() && i == len(tx.BodyKeys)-1 {
				vr = b.StaticGet(cls.Name + "." + tx.UseField)
			} else {
				vr = b.Param(len(tx.QueryKeys) + i)
			}
			b.InvokeVoid("org.apache.http.entity.mime.MultipartEntityBuilder.addTextBody", mb, kr, vr)
		}
		bodyReg = b.Invoke("org.apache.http.entity.mime.MultipartEntityBuilder.build", mb)
	}

	respReg := emitSend(b, library, tx.Method, uri, bodyReg, p, cls, tx)

	// Response processing (for synchronous libraries).
	if respReg != ir.NoReg && tx.RespKind != "" && library != "volley" {
		emitRespParse(b, cls, respReg, tx, library)
	}
	if tx.Scenario == "longpoll" {
		// Retry loop: the handler re-invokes itself with the same timeout
		// after each response, the way long-poll clients re-arm. The
		// recursive call edge keeps the poll cycle visible to the call
		// graph without needing intra-method control flow.
		var args []int
		for i := range tx.QueryKeys {
			args = append(args, b.Param(i))
		}
		b.InvokeVoid(cls.Name+"."+name, b.This(), args...)
	}
	b.ReturnVoid()
	b.Done()

	if tx.StoreField != "" && cls.Field(tx.StoreField) == nil {
		cls.Fields = append(cls.Fields, &ir.Field{Name: tx.StoreField, Type: "java.lang.String", Static: true})
	}

	p.Manifest.EntryPoints = append(p.Manifest.EntryPoints, ir.EntryPoint{
		Method: cls.Name + "." + name,
		Kind:   tx.Trait,
		Label:  fmt.Sprintf("tx%d", tx.ID),
	})
}

// emitSend writes the library-specific request dispatch and returns the
// register holding the raw response body string (NoReg when the library
// delivers the response through a callback).
func emitSend(b *ir.B, library, method string, uri, bodyReg int, p *ir.Program, cls *ir.Class, tx TxSpec) int {
	// Session headers (cookie / bearer-token scenarios): the value comes
	// from the static field a prior transaction's response populated.
	headerArgs := func() (int, int) {
		hk := b.ConstStr(tx.HeaderName)
		hv := b.StaticGet(cls.Name + "." + tx.UseField)
		return hk, hv
	}
	sendsHeader := tx.UseField != "" && tx.UsePart == "header"

	switch library {
	case "urlconn":
		u := b.New("java.net.URL")
		b.InvokeSpecial("java.net.URL.<init>", u, uri)
		conn := b.Invoke("java.net.URL.openConnection", u)
		if method != "GET" {
			m := b.ConstStr(method)
			b.InvokeVoid("java.net.HttpURLConnection.setRequestMethod", conn, m)
		}
		if sendsHeader {
			hk, hv := headerArgs()
			b.InvokeVoid("java.net.HttpURLConnection.setRequestProperty", conn, hk, hv)
		}
		if bodyReg != ir.NoReg {
			out := b.Invoke("java.net.HttpURLConnection.getOutputStream", conn)
			b.InvokeVoid("java.io.OutputStream.write", out, bodyReg)
		}
		in := b.Invoke("java.net.HttpURLConnection.getInputStream", conn)
		if tx.RespKind == "" {
			return ir.NoReg // response ignored by the app
		}
		switch tx.Scenario {
		case "gzip":
			// Content-Encoding: gzip — decompress through a decorator.
			gz := b.New("java.util.zip.GZIPInputStream")
			b.InvokeSpecial("java.util.zip.GZIPInputStream.<init>", gz, in)
			return b.Invoke("java.io.InputStream.readAll", gz)
		case "chunked":
			// Transfer-Encoding: chunked — read through a buffered reader.
			isr := b.New("java.io.InputStreamReader")
			b.InvokeSpecial("java.io.InputStreamReader.<init>", isr, in)
			br := b.New("java.io.BufferedReader")
			b.InvokeSpecial("java.io.BufferedReader.<init>", br, isr)
			return b.Invoke("java.io.BufferedReader.readLine", br)
		}
		return b.Invoke("java.io.InputStream.readAll", in)

	case "okhttp":
		rb := b.New("okhttp3.Request$Builder")
		b.InvokeSpecial("okhttp3.Request$Builder.<init>", rb)
		b.InvokeVoid("okhttp3.Request$Builder.url", rb, uri)
		if sendsHeader {
			hk, hv := headerArgs()
			b.InvokeVoid("okhttp3.Request$Builder.header", rb, hk, hv)
		}
		if bodyReg != ir.NoReg {
			b.InvokeVoid("okhttp3.Request$Builder.post", rb, bodyReg)
		}
		if method == "PUT" || method == "DELETE" {
			mv := b.ConstStr(method)
			b.InvokeVoid("okhttp3.Request$Builder.method", rb, mv)
		}
		req := b.Invoke("okhttp3.Request$Builder.build", rb)
		clt := b.New("okhttp3.OkHttpClient")
		b.InvokeSpecial("okhttp3.OkHttpClient.<init>", clt)
		call := b.Invoke("okhttp3.OkHttpClient.newCall", clt, req)
		resp := b.Invoke("okhttp3.Call.execute", call)
		if tx.RespKind == "" {
			return ir.NoReg
		}
		body := b.Invoke("okhttp3.Response.body", resp)
		return b.Invoke("okhttp3.ResponseBody.string", body)

	case "volley":
		// Dedicated request subclass carrying the onResponse callback.
		sub := p.AddClass(&ir.Class{
			Name:  cls.Name + fmt.Sprintf("$VReq%d", tx.ID),
			Super: "com.android.volley.toolbox.JsonObjectRequest",
		})
		onr := ir.NewMethod(sub, "onResponse", false, []string{"org.json.JSONObject"}, "void")
		js := onr.Param(0)
		for i, k := range tx.RespKeys {
			kr := onr.ConstStr(k)
			v := onr.Invoke("org.json.JSONObject.getString", js, kr)
			if tx.StoreField != "" && i == 0 {
				onr.StaticPut(cls.Name+"."+tx.StoreField, v)
			}
		}
		onr.ReturnVoid()
		onr.Done()
		r := b.New(sub.Name)
		mi := b.ConstInt(volleyMethodConst(method))
		if bodyReg != ir.NoReg {
			b.InvokeSpecial("com.android.volley.toolbox.JsonObjectRequest.<init>", r, mi, uri, bodyReg)
		} else {
			b.InvokeSpecial("com.android.volley.toolbox.JsonObjectRequest.<init>", r, mi, uri)
		}
		q := b.New("com.android.volley.RequestQueue")
		b.InvokeVoid("com.android.volley.RequestQueue.add", q, r)
		return ir.NoReg

	default: // apache
		var req int
		switch method {
		case "POST":
			req = b.New("org.apache.http.client.methods.HttpPost")
			b.InvokeSpecial("org.apache.http.client.methods.HttpPost.<init>", req, uri)
		case "PUT":
			req = b.New("org.apache.http.client.methods.HttpPut")
			b.InvokeSpecial("org.apache.http.client.methods.HttpPut.<init>", req, uri)
		case "DELETE":
			req = b.New("org.apache.http.client.methods.HttpDelete")
			b.InvokeSpecial("org.apache.http.client.methods.HttpDelete.<init>", req, uri)
		default:
			req = b.New("org.apache.http.client.methods.HttpGet")
			b.InvokeSpecial("org.apache.http.client.methods.HttpGet.<init>", req, uri)
		}
		if sendsHeader {
			hk, hv := headerArgs()
			b.InvokeVoid("org.apache.http.client.methods.HttpUriRequest.addHeader", req, hk, hv)
		}
		if bodyReg != ir.NoReg {
			b.InvokeVoid("org.apache.http.client.methods.HttpEntityEnclosingRequestBase.setEntity", req, bodyReg)
		}
		clt := b.New("org.apache.http.impl.client.DefaultHttpClient")
		b.InvokeSpecial("org.apache.http.impl.client.DefaultHttpClient.<init>", clt)
		resp := b.Invoke("org.apache.http.client.HttpClient.execute", clt, req)
		if tx.RespKind == "" {
			return ir.NoReg
		}
		ent := b.Invoke("org.apache.http.HttpResponse.getEntity", resp)
		return b.InvokeStatic("org.apache.http.util.EntityUtils.toString", ent)
	}
}

// emitRespParse writes the response-processing code for raw body respReg.
func emitRespParse(b *ir.B, cls *ir.Class, respReg int, tx TxSpec, library string) {
	switch tx.RespKind {
	case "json":
		js := b.InvokeStatic("org.json.JSONObject.parse", respReg)
		for i, k := range tx.RespKeys {
			kr := b.ConstStr(k)
			v := b.Invoke("org.json.JSONObject.getString", js, kr)
			if tx.StoreField != "" && i == 0 {
				b.StaticPut(cls.Name+"."+tx.StoreField, v)
			}
		}
	case "xml":
		doc := b.InvokeStatic("android.util.Xml.parse", respReg)
		for _, tag := range tx.RespKeys {
			tr := b.ConstStr(tag)
			el := b.Invoke("org.w3c.dom.Document.getElementsByTagName", doc, tr)
			b.Invoke("org.w3c.dom.Element.getTextContent", el)
		}
	}
}

// emitBallast writes n non-networking methods: view updates, label
// formatting, arithmetic — the bulk of any real app. A handful become
// UI-only entry points so the fuzzers exercise them too. None of this code
// may appear in protocol slices.
func emitBallast(p *ir.Program, cls *ir.Class, n int, r *rng) {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("ui%d", i)
		b := ir.NewMethod(cls, name, false, []string{"int"}, "java.lang.String")
		x := b.Param(0)
		sb := b.New("java.lang.StringBuilder")
		b.InvokeSpecial("java.lang.StringBuilder.<init>", sb)
		label := b.ConstStr(r.pick(respWords) + ": ")
		b.InvokeVoid("java.lang.StringBuilder.append", sb, label)
		k := b.ConstInt(int64(r.intn(100)))
		scaled := b.Binop("*", x, k)
		off := b.ConstInt(int64(r.intn(10)))
		adj := b.Binop("+", scaled, off)
		b.InvokeVoid("java.lang.StringBuilder.append", sb, adj)
		txt := b.Invoke("java.lang.StringBuilder.toString", sb)
		tv := b.New("android.widget.TextView")
		b.InvokeVoid("android.widget.TextView.setText", tv, txt)
		unit := b.ConstStr(r.pick(keyWords))
		low := b.Invoke("java.lang.String.toLowerCase", unit)
		b.Return(low)
		b.Done()
		if i%16 == 0 {
			h := ir.NewMethod(cls, fmt.Sprintf("onUi%d", i), false, nil, "void")
			v := h.ConstInt(int64(i))
			h.Invoke(cls.Name+"."+name, h.This(), v)
			h.ReturnVoid()
			h.Done()
			p.Manifest.EntryPoints = append(p.Manifest.EntryPoints, ir.EntryPoint{
				Method: cls.Name + ".onUi" + fmt.Sprint(i), Kind: ir.EventClick,
				Label: "ui-only",
			})
		}
	}
}

// volleyMethodConst maps a verb to com.android.volley.Request.Method.
func volleyMethodConst(method string) int64 {
	switch method {
	case "POST":
		return 1
	case "PUT":
		return 2
	case "DELETE":
		return 3
	default:
		return 0
	}
}

// registerRoute installs the server side of one transaction.
func registerRoute(s *httpsim.Server, tx TxSpec) {
	respond := func(r *httpsim.Request) *httpsim.Response {
		// Enforce declared body keys so fuzzing exercises real parsing.
		for _, k := range tx.BodyKeys {
			if !strings.Contains(r.Body, k) {
				return httpsim.Error(400, "missing field "+k)
			}
		}
		// Session scenarios require their header (cookie / bearer token).
		if tx.UseField != "" && tx.UsePart == "header" && r.Headers[tx.HeaderName] == "" {
			return httpsim.Error(401, "missing header "+tx.HeaderName)
		}
		switch tx.RespKind {
		case "json":
			var b strings.Builder
			b.WriteString("{")
			for i, k := range tx.RespKeys {
				if i > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "%q:%q", k, "v-"+k)
			}
			b.WriteString("}")
			switch tx.Scenario {
			case "gzip":
				return httpsim.GzipJSON(b.String())
			case "chunked":
				return httpsim.ChunkedJSON(b.String(), 16)
			}
			return httpsim.JSON(b.String())
		case "xml":
			var b strings.Builder
			b.WriteString("<result>")
			for _, k := range tx.RespKeys {
				fmt.Fprintf(&b, "<%s>v-%s</%s>", k, k, k)
			}
			b.WriteString("</result>")
			return httpsim.XML(b.String())
		default:
			return httpsim.Text("ok")
		}
	}
	s.Handle(tx.Method, tx.Path, respond)
}
