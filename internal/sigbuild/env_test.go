package sigbuild

import (
	"testing"

	"extractocol/internal/ir"
	"extractocol/internal/siglang"
)

const (
	mpCreate = "org.apache.http.entity.mime.MultipartEntityBuilder.create"
	mpText   = "org.apache.http.entity.mime.MultipartEntityBuilder.addTextBody"
	mpBuild  = "org.apache.http.entity.mime.MultipartEntityBuilder.build"
)

// TestRegisterWrittenOnOneArm pins the join of a register that only one
// arm of a fork writes: after the join it holds that arm's value, as if
// the other arm's missing value were absent. A multipart part, a
// name/value pair, given a different value on each arm joins name with
// name and value with value.
func TestRegisterWrittenOnOneArm(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(b *ir.B, mode int)
		part func(rq *RequestSig) siglang.Sig
		want string
	}{
		{name: "string on one arm",
			body: func(b *ir.B, mode int) {
				sb := b.New("java.lang.StringBuilder")
				b.InvokeSpecial(sbInit, sb)
				b.InvokeVoid(sbApp, sb, b.ConstStr("https://h.example.com/q?"))
				b.IfZ(mode, "join")
				key := b.ConstStr("k=")
				b.Label("join")
				b.InvokeVoid(sbApp, sb, key)
				req := b.New("org.apache.http.client.methods.HttpGet")
				b.InvokeSpecial(getInit, req, b.Invoke(sbStr, sb))
				execute(b, req)
			},
			part: func(rq *RequestSig) siglang.Sig { return rq.URI },
			want: `"https://h.example.com/q?k="`},
		{name: "pair valued on each arm",
			body: func(b *ir.B, mode int) {
				mb := b.InvokeStatic(mpCreate)
				b.IfZ(mode, "else")
				b.InvokeVoid(mpText, mb, b.ConstStr("k"), b.ConstStr("a"))
				b.Goto("join")
				b.Label("else")
				b.InvokeVoid(mpText, mb, b.ConstStr("k"), b.ConstStr("b"))
				b.Label("join")
				req := b.New("org.apache.http.client.methods.HttpPost")
				b.InvokeSpecial(postInit, req, b.ConstStr("https://h.example.com/f"))
				b.InvokeVoid(setEnt, req, b.Invoke(mpBuild, mb))
				execute(b, req)
			},
			part: func(rq *RequestSig) siglang.Sig { return rq.Body },
			want: `concat("k=", ("a" ∨ "b"))`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, c := newApp("t.arm", "t.arm.A")
			b := ir.NewMethod(c, "send", false, []string{"int"}, "void")
			tc.body(b, b.Param(0))
			b.ReturnVoid()
			b.Done()
			p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.arm.A.send", Kind: ir.EventClick}}

			if got := siglang.Canon(tc.part(analyze(t, p)[0])); got != tc.want {
				t.Fatalf("got %s, want %s", got, tc.want)
			}
		})
	}
}

// TestInvokeWithoutResultRegister pins calls whose result register is
// ir.NoReg: a toString and a demarcation point whose results are dropped
// write no register, and the request is still extracted.
func TestInvokeWithoutResultRegister(t *testing.T) {
	p, c := newApp("t.nr", "t.nr.N")
	b := ir.NewMethod(c, "send", false, nil, "void")
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial(sbInit, sb)
	b.InvokeVoid(sbApp, sb, b.ConstStr("https://h.example.com/a"))
	b.InvokeVoid(sbStr, sb)
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial(getInit, req, b.Invoke(sbStr, sb))
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial(clInit, cl)
	b.InvokeVoid(execRef, cl, req)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.nr.N.send", Kind: ir.EventClick}}

	reqs, resps := analyzeBoth(t, p)
	if got := siglang.Canon(reqs[0].URI); got != `"https://h.example.com/a"` {
		t.Errorf("URI = %s", got)
	}
	if resps[0].HasBody() {
		t.Errorf("response body %q from a dropped result", resps[0].BodyKind)
	}
}
