package callgraph

import (
	"slices"
	"testing"

	"extractocol/internal/ir"
	"extractocol/internal/semmodel"
)

// testApp builds a small app exercising direct calls, virtual dispatch,
// an AsyncTask-style implicit callback and an intent entry point.
func testApp() *ir.Program {
	p := ir.NewProgram("t.app")

	// Base/Sub hierarchy for CHA.
	base := p.AddClass(&ir.Class{Name: "t.app.Base"})
	bb := ir.NewMethod(base, "work", false, nil, "void")
	bb.ReturnVoid()
	bb.Done()
	sub := p.AddClass(&ir.Class{Name: "t.app.Sub", Super: "t.app.Base"})
	sb := ir.NewMethod(sub, "work", false, nil, "void")
	sb.ReturnVoid()
	sb.Done()

	// AsyncTask-like class.
	task := p.AddClass(&ir.Class{Name: "t.app.FetchTask", Super: "android.os.AsyncTask"})
	dib := ir.NewMethod(task, "doInBackground", false, nil, "java.lang.String")
	s := dib.ConstStr("result")
	dib.Return(s)
	dib.Done()
	poe := ir.NewMethod(task, "onPostExecute", false, []string{"java.lang.String"}, "void")
	poe.ReturnVoid()
	poe.Done()

	main := p.AddClass(&ir.Class{Name: "t.app.Main"})
	b := ir.NewMethod(main, "onCreate", false, nil, "void")
	// Direct static call.
	b.InvokeStatic("t.app.Main.helper")
	// Virtual call through Base (CHA should add Sub.work too).
	o := b.New("t.app.Base")
	b.InvokeSpecial("t.app.Base.<init>", o)
	b.InvokeVoid("t.app.Base.work", o)
	// Async registration: implicit edge to doInBackground.
	tk := b.New("t.app.FetchTask")
	b.InvokeSpecial("t.app.FetchTask.<init>", tk)
	b.InvokeVoid("android.os.AsyncTask.execute", tk)
	b.ReturnVoid()
	b.Done()

	h := ir.NewMethod(main, "helper", true, nil, "void")
	h.ReturnVoid()
	h.Done()

	hidden := ir.NewMethod(main, "onIntentOnly", false, nil, "void")
	hidden.InvokeStatic("t.app.Main.helper")
	hidden.ReturnVoid()
	hidden.Done()

	p.Manifest.EntryPoints = []ir.EntryPoint{
		{Method: "t.app.Main.onCreate", Kind: ir.EventCreate},
		{Method: "t.app.Main.onIntentOnly", Kind: ir.EventIntent},
	}
	return p
}

// id resolves a method ref to its dense ID, failing the test when the
// program has no such method.
func id(t *testing.T, g *Graph, ref string) uint32 {
	t.Helper()
	mid, ok := g.Index().MethodID(ref)
	if !ok {
		t.Fatalf("no method %s", ref)
	}
	return mid
}

func edgesTo(t *testing.T, g *Graph, caller, callee string) []Edge {
	t.Helper()
	var out []Edge
	for _, e := range g.Callees(id(t, g, caller)) {
		if e.Callee == id(t, g, callee) {
			out = append(out, e)
		}
	}
	return out
}

// reachableRefs is the string-keyed reachability walk ReachableBits
// replaced: a depth-first search over method refs from the given roots.
// It is the oracle the dense walk is checked against.
func reachableRefs(g *Graph, roots []string) map[string]bool {
	x := g.Index()
	seen := map[string]bool{}
	var stack []string
	for _, r := range roots {
		if _, ok := x.MethodID(r); ok && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		mid, _ := x.MethodID(m)
		for _, e := range g.Callees(mid) {
			if callee := x.MethodAt(e.Callee).Ref(); !seen[callee] {
				seen[callee] = true
				stack = append(stack, callee)
			}
		}
	}
	return seen
}

func TestDirectStaticEdge(t *testing.T) {
	g := Build(testApp(), semmodel.Default())
	if len(edgesTo(t, g, "t.app.Main.onCreate", "t.app.Main.helper")) != 1 {
		t.Fatal("missing static call edge onCreate -> helper")
	}
}

func TestCHAVirtualDispatchIncludesOverrides(t *testing.T) {
	g := Build(testApp(), semmodel.Default())
	if len(edgesTo(t, g, "t.app.Main.onCreate", "t.app.Base.work")) != 1 {
		t.Fatal("missing Base.work edge")
	}
	if len(edgesTo(t, g, "t.app.Main.onCreate", "t.app.Sub.work")) != 1 {
		t.Fatal("CHA should include override Sub.work")
	}
}

func TestImplicitAsyncTaskEdges(t *testing.T) {
	g := Build(testApp(), semmodel.Default())
	es := edgesTo(t, g, "t.app.Main.onCreate", "t.app.FetchTask.doInBackground")
	if len(es) != 1 || !es[0].Implicit {
		t.Fatalf("implicit execute->doInBackground edge wrong: %+v", es)
	}
	chain := edgesTo(t, g, "t.app.FetchTask.doInBackground", "t.app.FetchTask.onPostExecute")
	if len(chain) != 1 || !chain[0].Implicit {
		t.Fatalf("doInBackground->onPostExecute chain missing: %+v", chain)
	}
}

func TestCallersIndex(t *testing.T) {
	g := Build(testApp(), semmodel.Default())
	callers := g.Callers(id(t, g, "t.app.Main.helper"))
	if len(callers) != 2 { // onCreate and onIntentOnly
		t.Fatalf("helper callers = %d, want 2", len(callers))
	}
}

func TestAnalysisRootsExcludeIntents(t *testing.T) {
	p := testApp()
	roots := AnalysisRoots(p)
	if len(roots) != 1 || roots[0] != "t.app.Main.onCreate" {
		t.Fatalf("roots = %v, want only onCreate", roots)
	}
}

func TestReachabilityStopsAtIntentOnlyFlows(t *testing.T) {
	p := testApp()
	g := Build(p, semmodel.Default())
	reach := reachableRefs(g, AnalysisRoots(p))
	if !reach["t.app.FetchTask.doInBackground"] {
		t.Fatal("async callback should be reachable")
	}
	if reach["t.app.Main.onIntentOnly"] {
		t.Fatal("intent-only entry must be invisible to the analyzer")
	}
	// helper is reachable via onCreate even though onIntentOnly also calls it.
	if !reach["t.app.Main.helper"] {
		t.Fatal("helper should be reachable via onCreate")
	}
}

func TestInferTypes(t *testing.T) {
	p := testApp()
	m := p.Method("t.app.Main.onCreate")
	types := InferTypes(p, m)
	if types[0] != "t.app.Main" {
		t.Fatalf("receiver type = %q", types[0])
	}
	// Find the register allocated for FetchTask.
	found := false
	for i := range m.Instrs {
		in := &m.Instrs[i]
		if in.Op == ir.OpNew && in.Sym == "t.app.FetchTask" {
			if types[in.Dst] != "t.app.FetchTask" {
				t.Fatalf("alloc type = %q", types[in.Dst])
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no FetchTask allocation found")
	}
}

func TestCalleesAt(t *testing.T) {
	p := testApp()
	g := Build(p, semmodel.Default())
	m := p.Method("t.app.Main.onCreate")
	for i := range m.Instrs {
		in := &m.Instrs[i]
		if in.Op == ir.OpInvoke && in.Sym == "t.app.Base.work" {
			es := g.CalleesAt(id(t, g, "t.app.Main.onCreate"), i)
			if len(es) != 2 {
				t.Fatalf("CalleesAt(work) = %d edges, want 2 (Base+Sub)", len(es))
			}
			return
		}
	}
	t.Fatal("work call site not found")
}

// Out-edges are ordered by (site, callee ref) whatever order the classes
// were declared in. Here the subclass precedes its base, so method ID
// order and ref order disagree at the one virtual call site.
func TestCalleesOrderedByRef(t *testing.T) {
	p := ir.NewProgram("t")
	sub := p.AddClass(&ir.Class{Name: "t.z.Sub", Super: "t.a.Base"})
	sw := ir.NewMethod(sub, "work", false, nil, "void")
	sw.ReturnVoid()
	sw.Done()
	base := p.AddClass(&ir.Class{Name: "t.a.Base"})
	bw := ir.NewMethod(base, "work", false, nil, "void")
	bw.ReturnVoid()
	bw.Done()
	main := p.AddClass(&ir.Class{Name: "t.Main"})
	b := ir.NewMethod(main, "run", true, []string{"t.a.Base"}, "void")
	b.InvokeVoid("t.a.Base.work", b.Param(0))
	b.ReturnVoid()
	b.Done()

	g := Build(p, semmodel.Default())
	var got []string
	for _, e := range g.Callees(id(t, g, "t.Main.run")) {
		got = append(got, g.Index().MethodAt(e.Callee).Ref())
	}
	if want := []string{"t.a.Base.work", "t.z.Sub.work"}; !slices.Equal(got, want) {
		t.Fatalf("Callees(t.Main.run) = %v, want %v", got, want)
	}
}

// interfaceApp calls t.Listener.onEvent on a parameter typed with the
// interface; t.Impl is its only implementer.
func interfaceApp() *ir.Program {
	p := ir.NewProgram("t")
	impl := p.AddClass(&ir.Class{Name: "t.Impl", Interfaces: []string{"t.Listener"}})
	im := ir.NewMethod(impl, "onEvent", false, nil, "void")
	im.ReturnVoid()
	im.Done()

	main := p.AddClass(&ir.Class{Name: "t.Main"})
	b := ir.NewMethod(main, "go", true, []string{"t.Listener"}, "void")
	l := b.Param(0)
	b.InvokeVoid("t.Listener.onEvent", l)
	b.ReturnVoid()
	b.Done()
	return p
}

func TestInterfaceDispatch(t *testing.T) {
	g := Build(interfaceApp(), semmodel.Default())
	if len(edgesTo(t, g, "t.Main.go", "t.Impl.onEvent")) != 1 {
		t.Fatal("interface dispatch edge missing")
	}
}
