package fuzz

import (
	"strings"
	"testing"

	"extractocol/internal/httpsim"
	"extractocol/internal/ir"
)

const (
	getInit = "org.apache.http.client.methods.HttpGet.<init>"
	clInit  = "org.apache.http.impl.client.DefaultHttpClient.<init>"
	execRef = "org.apache.http.client.HttpClient.execute"
)

// buildApp creates an app with one GET per entry-point kind.
func buildApp(kinds []ir.EventKind, gate bool) (*ir.Program, func() *httpsim.Network) {
	p := ir.NewProgram("t.fz")
	c := p.AddClass(&ir.Class{Name: "t.fz.A"})
	for i, k := range kinds {
		name := "on" + strings.Title(k.String())
		b := ir.NewMethod(c, name, false, nil, "void")
		u := b.ConstStr("https://fz.example.com/" + k.String())
		req := b.New("org.apache.http.client.methods.HttpGet")
		b.InvokeSpecial(getInit, req, u)
		cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
		b.InvokeSpecial(clInit, cl)
		b.Invoke(execRef, cl, req)
		b.ReturnVoid()
		b.Done()
		label := ""
		if gate && k == ir.EventCustomUI && i >= 0 {
			label = GateLabel
		}
		p.Manifest.EntryPoints = append(p.Manifest.EntryPoints,
			ir.EntryPoint{Method: "t.fz.A." + name, Kind: k, Label: label})
	}
	mkNet := func() *httpsim.Network {
		n := httpsim.NewNetwork()
		s := httpsim.NewServer("fz.example.com")
		for _, k := range kinds {
			path := "/" + k.String()
			s.Handle("GET", path, func(r *httpsim.Request) *httpsim.Response {
				return httpsim.JSON(`{"ok":true}`)
			})
		}
		n.Register(s)
		return n
	}
	return p, mkNet
}

var allKinds = []ir.EventKind{
	ir.EventCreate, ir.EventClick, ir.EventCustomUI, ir.EventLogin,
	ir.EventAction, ir.EventTimer, ir.EventServerPush, ir.EventLocation,
	ir.EventIntent,
}

func routesOf(n *httpsim.Network) map[string]bool {
	out := map[string]bool{}
	for _, t := range n.Trace() {
		out[t.Response.RouteID] = true
	}
	return out
}

func TestManualCoverage(t *testing.T) {
	p, mkNet := buildApp(allKinds, false)
	n := mkNet()
	res, err := Run(p, n, Manual)
	if err != nil {
		t.Fatal(err)
	}
	routes := routesOf(n)
	// Manual reaches create/click/customui/login/location/intent.
	for _, want := range []string{"/create", "/click", "/customui", "/login", "/location", "/intent"} {
		if !routes["GET fz.example.com"+want] {
			t.Errorf("manual fuzzing missed %s", want)
		}
	}
	// But never timers, server pushes or side-effect actions.
	for _, miss := range []string{"/timer", "/serverpush", "/action"} {
		if routes["GET fz.example.com"+miss] {
			t.Errorf("manual fuzzing should not reach %s", miss)
		}
	}
	if res.Aborted {
		t.Error("manual fuzzing never aborts")
	}
}

func TestAutoCoverage(t *testing.T) {
	p, mkNet := buildApp(allKinds, false)
	n := mkNet()
	if _, err := Run(p, n, Auto); err != nil {
		t.Fatal(err)
	}
	routes := routesOf(n)
	for _, want := range []string{"/create", "/click"} {
		if !routes["GET fz.example.com"+want] {
			t.Errorf("auto fuzzing missed %s", want)
		}
	}
	for _, miss := range []string{"/customui", "/login", "/intent", "/timer", "/action"} {
		if routes["GET fz.example.com"+miss] {
			t.Errorf("auto fuzzing should not reach %s", miss)
		}
	}
}

func TestAutoAbortsOnCustomUIGate(t *testing.T) {
	p, mkNet := buildApp(allKinds, true)
	n := mkNet()
	res, err := Run(p, n, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("auto fuzzing should abort at the custom-UI gate")
	}
	if len(n.Trace()) != 0 {
		t.Fatalf("gated auto fuzzing produced traffic: %d entries", len(n.Trace()))
	}
	// Manual fuzzing is unaffected by the gate.
	n2 := mkNet()
	if _, err := Run(p, n2, Manual); err != nil {
		t.Fatal(err)
	}
	if len(n2.Trace()) == 0 {
		t.Fatal("manual fuzzing should still produce traffic")
	}
}

// TestCoverageStrings pins the event kinds each mode may trigger: a human
// logs in, the UI-automation tool cannot.
func TestCoverageStrings(t *testing.T) {
	if !reachable(Manual, ir.EventLogin) {
		t.Error("manual coverage missing login")
	}
	if reachable(Auto, ir.EventLogin) {
		t.Error("auto coverage should not include login")
	}
}
