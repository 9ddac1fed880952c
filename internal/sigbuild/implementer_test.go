package sigbuild

import (
	"testing"

	"extractocol/internal/ir"
	"extractocol/internal/siglang"
)

// interfaceURIApp reads its request URI from t.iface.Api.url(), invoked on
// a field declared with the interface type, so neither the inferred
// receiver type nor the declared class resolves the call. Each entry of
// hosts adds one class implementing t.iface.Api whose url() returns a
// constant on that host.
func interfaceURIApp(hosts ...string) *ir.Program {
	p, c := newApp("t.iface", "t.iface.Main")
	c.Fields = []*ir.Field{{Name: "api", Type: "t.iface.Api"}}
	for i, h := range hosts {
		impl := p.AddClass(&ir.Class{Name: "t.iface.Impl" + string(rune('A'+i)),
			Interfaces: []string{"t.iface.Api"}})
		u := ir.NewMethod(impl, "url", false, nil, "java.lang.String")
		u.Return(u.ConstStr("http://" + h + "/feed"))
		u.Done()
	}
	b := ir.NewMethod(c, "load", false, nil, "void")
	api := b.FieldGet(b.This(), "api")
	uri := b.Invoke("t.iface.Api.url", api)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, uri)
	execute(b, req)
	b.ReturnVoid()
	m := b.Done()
	for i := range m.Instrs {
		if m.Instrs[i].Sym == "t.iface.Api.url" {
			m.Instrs[i].Kind = ir.InvokeInterface
		}
	}
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.iface.Main.load", Kind: ir.EventCreate}}
	return p
}

// The interface call's receiver type is the interface itself, which is not
// a class of the program: resolveCallee falls back to the program's
// implementers of t.iface.Api and interprets the callee only when there is
// exactly one.
func TestSingleImplementerFallback(t *testing.T) {
	t.Run("one implementer", func(t *testing.T) {
		rq := analyze(t, interfaceURIApp("one.example.com"))[0]
		if got := siglang.RegexBody(rq.URI); got != `http://one\.example\.com/feed` {
			t.Fatalf("URI = %s, want the implementer's constant", got)
		}
	})
	t.Run("two implementers", func(t *testing.T) {
		rq := analyze(t, interfaceURIApp("one.example.com", "two.example.com"))[0]
		if got := siglang.RegexBody(rq.URI); got != ".*" {
			t.Fatalf("URI = %s, want .* (ambiguous dispatch stays unknown)", got)
		}
	})
}
