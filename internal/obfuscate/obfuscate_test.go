package obfuscate

import (
	"strings"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/ir"
	"extractocol/internal/siglang"
)

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

func buildApp() *ir.Program {
	p := ir.NewProgram("com.demo.app")
	c := p.AddClass(&ir.Class{Name: "com.demo.app.Api", Fields: []*ir.Field{
		{Name: "sessionToken", Type: "java.lang.String"},
	}})
	b := ir.NewMethod(c, "onCreate", false, nil, "void")
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial(sbInit, sb)
	s1 := b.ConstStr("https://demo.example.com/v1/feed.json?page=")
	b.InvokeVoid(sbApp, sb, s1)
	n := b.ConstInt(1)
	b.InvokeVoid(sbApp, sb, n)
	uri := b.Invoke(sbStr, sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, uri)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	resp := b.Invoke(execRef, cl, req)
	ent := b.Invoke(getEnt, resp)
	raw := b.InvokeStatic(entCont, ent)
	js := b.InvokeStatic(jParse, raw)
	k := b.ConstStr("token")
	tok := b.Invoke(jGetStr, js, k)
	b.FieldPut(b.This(), "sessionToken", tok)
	b.InvokeVoid("com.demo.app.Api.helper", b.This())
	b.ReturnVoid()
	b.Done()
	h := ir.NewMethod(c, "helper", false, nil, "void")
	h.ReturnVoid()
	h.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "com.demo.app.Api.onCreate", Kind: ir.EventCreate}}
	return p
}

func analyze(t *testing.T, p *ir.Program) *core.Report {
	t.Helper()
	rep, err := core.Analyze(p, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestApplyRenamesAppIdentifiers(t *testing.T) {
	p := buildApp()
	// A manifest entry point keeps its name even when it is no framework
	// callback: Android resolves registered components by name.
	b := ir.NewMethod(p.Class("com.demo.app.Api"), "refresh", false, nil, "void")
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = append(p.Manifest.EntryPoints, ir.EntryPoint{Method: "com.demo.app.Api.refresh", Kind: ir.EventCreate})
	m := Apply(p)
	if p.Class("com.demo.app.Api") != nil {
		t.Fatal("original class name survived")
	}
	if !p.Manifest.Obfuscated {
		t.Fatal("manifest not marked obfuscated")
	}
	if _, ok := m.Classes["com.demo.app.Api"]; !ok {
		t.Fatal("class mapping missing")
	}
	// helper must be renamed; the field too.
	if to, ok := m.Methods["com.demo.app.Api.helper"]; !ok || to == "com.demo.app.Api.helper" {
		t.Fatalf("helper not renamed: %q", to)
	}
	if want := m.Classes["com.demo.app.Api"] + ".refresh"; p.Manifest.EntryPoints[1].Method != want {
		t.Fatalf("entry point refresh became %q, want %q", p.Manifest.EntryPoints[1].Method, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("obfuscated program invalid: %v", err)
	}
}

// The paper's key claim (§5.1): obfuscation does not change Extractocol's
// output, because identifier renaming does not affect its operation.
func TestAnalysisIdenticalUnderObfuscation(t *testing.T) {
	plain := analyze(t, buildApp())

	obf := buildApp()
	Apply(obf)
	obfRep := analyze(t, obf)

	if len(plain.Transactions) != len(obfRep.Transactions) {
		t.Fatalf("tx counts differ: %d vs %d", len(plain.Transactions), len(obfRep.Transactions))
	}
	for i := range plain.Transactions {
		a, b := plain.Transactions[i], obfRep.Transactions[i]
		if a.URIRegex() != b.URIRegex() {
			t.Errorf("URI differs: %q vs %q", a.URIRegex(), b.URIRegex())
		}
		if a.Request.Method != b.Request.Method {
			t.Errorf("method differs")
		}
		ak := siglang.Keywords(&siglang.JSON{Root: a.Response.JSON})
		bk := siglang.Keywords(&siglang.JSON{Root: b.Response.JSON})
		if strings.Join(ak, ",") != strings.Join(bk, ",") {
			t.Errorf("response keywords differ: %v vs %v", ak, bk)
		}
	}
}

func TestShortName(t *testing.T) {
	tests := map[int]string{0: "a", 1: "b", 25: "z", 26: "aa", 27: "ab", 52: "ba"}
	for i, want := range tests {
		if got := shortName(i); got != want {
			t.Errorf("shortName(%d) = %q, want %q", i, got, want)
		}
	}
}

// Framework callbacks keep their names even where the manifest does not
// list them: Android calls them by name, through a listener or an
// AsyncTask, not through an entry point.
func TestFrameworkCallbacksKept(t *testing.T) {
	p := buildApp()
	callbacks := []string{"onResponse", "doInBackground"}
	for _, name := range callbacks {
		b := ir.NewMethod(p.Class("com.demo.app.Api"), name, false, nil, "void")
		b.ReturnVoid()
		b.Done()
	}
	m := Apply(p)
	cls := p.Class(m.Classes["com.demo.app.Api"])
	for _, name := range callbacks {
		if cls.Method(name) == nil {
			t.Errorf("%s was renamed to %q; framework callbacks must be kept", name, m.Methods["com.demo.app.Api."+name])
		}
	}
}
