package trace

import (
	"path/filepath"
	"reflect"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/httpsim"
	"extractocol/internal/ir"
	"extractocol/internal/runtime"
)

func sampleEntries() []Entry {
	return []Entry{
		{Seq: 1, Method: "GET", URL: "https://a.example.com/items?id=7&sort=top",
			Status: 200, RespType: "json",
			RespBody: `{"token":"T","items":[{"name":"x","price":3}]}`,
			RouteID:  "GET /items"},
		{Seq: 2, Method: "POST", URL: "https://a.example.com/login",
			ReqBody: "user=alice&passwd=pw", Status: 200, RespType: "json",
			RespBody: `{"session":"S"}`, RouteID: "POST /login"},
		{Seq: 3, Method: "GET", URL: "https://a.example.com/items?id=8",
			Status: 200, RespType: "json", RespBody: `{"token":"U"}`,
			RouteID: "GET /items"},
		{Seq: 4, Method: "GET", URL: "https://a.example.com/broken",
			Status: 404, RespType: "text", RouteID: ""},
		{Seq: 5, Method: "GET", URL: "https://a.example.com/feed.xml",
			Status: 200, RespType: "xml",
			RespBody: `<feed version="2"><item><title>t</title></item></feed>`,
			RouteID:  "GET /feed.xml"},
	}
}

func TestUniqueRoutesAndCounts(t *testing.T) {
	es := sampleEntries()
	routes := UniqueRoutes(es)
	want := []string{"GET /feed.xml", "GET /items", "POST /login"}
	if !reflect.DeepEqual(routes, want) {
		t.Fatalf("routes = %v", routes)
	}
	counts := CountByMethod(es)
	if counts["GET"] != 2 || counts["POST"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestKeywordExtraction(t *testing.T) {
	es := sampleEntries()
	req := RequestKeywords(es)
	for _, want := range []string{"id", "sort", "user", "passwd"} {
		if !contains(req, want) {
			t.Errorf("request keywords missing %q: %v", want, req)
		}
	}
	resp := ResponseKeywords(es)
	for _, want := range []string{"token", "items", "name", "price", "session", "feed", "item", "title", "version"} {
		if !contains(resp, want) {
			t.Errorf("response keywords missing %q: %v", want, resp)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	es := sampleEntries()
	if err := Save(path, es); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(es, got) {
		t.Fatalf("round trip mismatch:\n%v\n%v", es, got)
	}
}

func TestFromNetwork(t *testing.T) {
	n := httpsim.NewNetwork()
	s := httpsim.NewServer("h.example.com")
	s.Handle("GET", "/x", func(r *httpsim.Request) *httpsim.Response {
		return httpsim.JSON(`{"a":1}`)
	})
	n.Register(s)
	n.RoundTrip(&httpsim.Request{Method: "GET", URL: "https://h.example.com/x"})
	es := FromNetwork(n.Trace())
	if len(es) != 1 || es[0].RouteID != "GET h.example.com/x" || es[0].RespType != "json" {
		t.Fatalf("entries = %+v", es)
	}
}

// End-to-end: the static analyzer's signatures must match the interpreter's
// actual traffic.
func TestMatchReportEndToEnd(t *testing.T) {
	p := ir.NewProgram("t.e2e")
	c := p.AddClass(&ir.Class{Name: "t.e2e.A"})
	b := ir.NewMethod(c, "go", false, []string{"int"}, "void")
	id := b.Param(0)
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial("java.lang.StringBuilder.<init>", sb)
	s1 := b.ConstStr("https://e2e.example.com/items?id=")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, s1)
	b.InvokeVoid("java.lang.StringBuilder.append", sb, id)
	uri := b.Invoke("java.lang.StringBuilder.toString", sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial("org.apache.http.client.methods.HttpGet.<init>", req, uri)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial("org.apache.http.impl.client.DefaultHttpClient.<init>", cl)
	resp := b.Invoke("org.apache.http.client.HttpClient.execute", cl, req)
	ent := b.Invoke("org.apache.http.HttpResponse.getEntity", resp)
	raw := b.InvokeStatic("org.apache.http.util.EntityUtils.toString", ent)
	js := b.InvokeStatic("org.json.JSONObject.parse", raw)
	k := b.ConstStr("token")
	b.Invoke("org.json.JSONObject.getString", js, k)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.e2e.A.go", Kind: ir.EventClick}}

	// Static side.
	rep, err := core.Analyze(p, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transactions) != 1 {
		t.Fatalf("transactions = %d", len(rep.Transactions))
	}

	// Dynamic side.
	n := httpsim.NewNetwork()
	s := httpsim.NewServer("e2e.example.com")
	s.Handle("GET", "/items", func(r *httpsim.Request) *httpsim.Response {
		return httpsim.JSON(`{"token":"TK","extra":"ignored"}`)
	})
	n.Register(s)
	vmRun(t, p, n)

	es := FromNetwork(n.Trace())
	res := MatchReport(rep, es)
	if res.TraceEntries != 1 || res.MatchedEntries != 1 {
		t.Fatalf("match result = %+v", res)
	}
	if res.SigsWithTraffic != 1 || res.SigsValid != 1 {
		t.Fatalf("sig validity = %+v", res)
	}
	// Response accounting: "token" key matched, "extra" unread -> None.
	if res.RespStats.Key == 0 || res.RespStats.None == 0 {
		t.Fatalf("resp stats = %+v", res.RespStats)
	}
}

func vmRun(t *testing.T, p *ir.Program, n *httpsim.Network) {
	t.Helper()
	vm := runtime.New(p, n)
	for _, ep := range p.Manifest.EntryPoints {
		if err := vm.Fire(ep); err != nil {
			t.Fatal(err)
		}
	}
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

func TestMatchReportUnmatchedTraffic(t *testing.T) {
	rep := &core.Report{}
	es := []Entry{{Method: "GET", URL: "https://x.example.com/a", Status: 200, RouteID: "GET /a"}}
	res := MatchReport(rep, es)
	if res.MatchedEntries != 0 || len(res.Unmatched) != 1 {
		t.Fatalf("res = %+v", res)
	}
}
