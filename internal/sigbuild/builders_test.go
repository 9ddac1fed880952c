package sigbuild

import (
	"testing"

	"extractocol/internal/ir"
	"extractocol/internal/siglang"
)

// TestJSONObjectAndStringBuilderSemantics pins the builder models against
// Java's semantics, one hand-built program per row: a JSONObject put into
// another shows its later puts, on every branch; toString() is a snapshot;
// a JSONObject put into itself yields a finite body; a StringBuilder's
// toString() inside a loop keeps the repetition it saw; a second put of a
// constant key replaces its pair. Each program takes (String p, String q,
// int c) and sends one request.
func TestJSONObjectAndStringBuilderSemantics(t *testing.T) {
	newJS := func(b *ir.B) int {
		js := b.New("org.json.JSONObject")
		b.InvokeSpecial(jInit, js)
		return js
	}
	put := func(b *ir.B, js int, key string, v int) {
		b.InvokeVoid(jPut, js, b.ConstStr(key), v)
	}
	post := func(b *ir.B, body int) {
		ent := b.New("org.apache.http.entity.StringEntity")
		b.InvokeSpecial(seInit, ent, body)
		req := b.New("org.apache.http.client.methods.HttpPost")
		b.InvokeSpecial(postInit, req, b.ConstStr("https://h.example.com/api"))
		b.InvokeVoid(setEnt, req, ent)
		execute(b, req)
	}
	postJSON := func(b *ir.B, js int) { post(b, b.Invoke(jToStr, js)) }

	for _, tc := range []struct {
		name  string
		build func(b *ir.B, p, q, c int)
		// body is the request body's canonical form; when empty, the URI
		// must accept uriAccepts instead.
		body       string
		uriAccepts string
	}{
		{name: "A nested put then inner put",
			build: func(b *ir.B, p, q, c int) {
				outer, inner := newJS(b), newJS(b)
				put(b, outer, "user", inner)
				put(b, inner, "name", p)
				postJSON(b, outer)
			},
			body: `json(obj{"user": obj{"name": ?string}})`},
		{name: "B toString is a snapshot",
			build: func(b *ir.B, p, q, c int) {
				js := newJS(b)
				put(b, js, "a", p)
				s := b.Invoke(jToStr, js)
				put(b, js, "b", q)
				post(b, s)
			},
			body: `json(obj{"a": ?string})`},
		{name: "E inner filled on both branches after the put",
			build: func(b *ir.B, p, q, c int) {
				outer, inner := newJS(b), newJS(b)
				put(b, outer, "user", inner)
				b.IfZ(c, "else")
				put(b, inner, "name", p)
				b.Goto("join")
				b.Label("else")
				put(b, inner, "id", q)
				b.Label("join")
				postJSON(b, outer)
			},
			body: `json(obj{"user": obj{"name": ?string, "id": ?string}})`},
		{name: "F inner filled on one branch after the put",
			build: func(b *ir.B, p, q, c int) {
				outer, inner := newJS(b), newJS(b)
				put(b, inner, "name", p)
				put(b, outer, "user", inner)
				b.IfZ(c, "join")
				put(b, inner, "id", q)
				b.Label("join")
				postJSON(b, outer)
			},
			body: `json(obj{"user": obj{"name": ?string, "id": ?string}})`},
		{name: "G StringBuilder toString inside a loop",
			build: func(b *ir.B, p, q, c int) {
				sb := b.New("java.lang.StringBuilder")
				b.InvokeSpecial(sbInit, sb)
				b.InvokeVoid(sbApp, sb, b.ConstStr("https://h.example.com/q?"))
				b.Label("loop")
				b.InvokeVoid(sbApp, sb, b.ConstStr("k="))
				s := b.Invoke(sbStr, sb)
				b.InvokeVoid(sbApp, sb, b.ConstStr("&"))
				b.IfNZ(c, "loop")
				req := b.New("org.apache.http.client.methods.HttpGet")
				b.InvokeSpecial(getInit, req, s)
				execute(b, req)
			},
			uriAccepts: "https://h.example.com/q?k="},
		{name: "H nested put inside a loop",
			build: func(b *ir.B, p, q, c int) {
				outer := newJS(b)
				b.Label("loop")
				item := newJS(b)
				b.InvokeVoid(jPut, outer, p, item)
				put(b, item, "x", p)
				b.IfNZ(c, "loop")
				postJSON(b, outer)
			},
			body: `json(obj{?key: obj{?key: ?string}})`},
		{name: "I nested put under a dynamic key",
			build: func(b *ir.B, p, q, c int) {
				outer, item := newJS(b), newJS(b)
				b.InvokeVoid(jPut, outer, p, item)
				put(b, item, "x", p)
				postJSON(b, outer)
			},
			body: `json(obj{?key: obj{"x": ?string}})`},
		{name: "J JSONObject put into itself",
			build: func(b *ir.B, p, q, c int) {
				js := newJS(b)
				put(b, js, "a", p)
				put(b, js, "self", js)
				postJSON(b, js)
			},
			// Finite: nesting stops at resolvedTree's depth bound.
			body: `json(obj{"a": ?string, "self": obj{"a": ?string, "self": obj{"a": ?string, "self": ` +
				`obj{"a": ?string, "self": obj{"a": ?string, "self": obj{"a": ?string, "self": obj{"a": ?string}}}}}}})`},
		{name: "K constant key put twice, each object filled after its put",
			build: func(b *ir.B, p, q, c int) {
				outer, x, y := newJS(b), newJS(b), newJS(b)
				put(b, outer, "k", x)
				put(b, x, "x", p)
				put(b, outer, "k", y)
				put(b, y, "y", q)
				postJSON(b, outer)
			},
			body: `json(obj{"k": obj{"y": ?string}})`},
		{name: "L constant key put twice, the first object filled before its put",
			build: func(b *ir.B, p, q, c int) {
				outer, x, y := newJS(b), newJS(b), newJS(b)
				put(b, x, "x", p)
				put(b, outer, "k", x)
				put(b, outer, "k", y)
				put(b, y, "y", q)
				postJSON(b, outer)
			},
			body: `json(obj{"k": obj{"y": ?string}})`},
		{name: "M scalar key put twice",
			build: func(b *ir.B, p, q, c int) {
				js := newJS(b)
				put(b, js, "a", b.ConstStr("x"))
				put(b, js, "b", p)
				put(b, js, "a", b.ConstStr("y"))
				postJSON(b, js)
			},
			body: `json(obj{"a": "y", "b": ?string})`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, c := newApp("t.jv", "t.jv.V")
			b := ir.NewMethod(c, "send", false, []string{"java.lang.String", "java.lang.String", "int"}, "void")
			tc.build(b, b.Param(0), b.Param(1), b.Param(2))
			b.ReturnVoid()
			b.Done()
			p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.jv.V.send", Kind: ir.EventClick}}

			rq := analyze(t, p)[0]
			switch {
			case tc.uriAccepts != "":
				re, err := siglang.Compile(rq.URI)
				if err != nil {
					t.Fatal(err)
				}
				if !re.MatchString(tc.uriAccepts) {
					t.Fatalf("URI %s rejects %q", siglang.Canon(rq.URI), tc.uriAccepts)
				}
			default:
				if got := siglang.Canon(rq.Body); got != tc.body {
					t.Fatalf("body = %s, want %s", got, tc.body)
				}
			}
		})
	}
}

// TestCalleeWritesCallerObjects pins that a callee works on the objects
// its caller passed: send builds a URI in a StringBuilder, runs call,
// which calls the static helper, and sends the builder call returns. An
// addKey helper appends to the builder it is given, straight-line or on
// two branches; a touch helper adds to a list holding the builder, after
// which the caller appends to the builder and sends the list's first
// element, which in Java is that builder.
func TestCalleeWritesCallerObjects(t *testing.T) {
	const (
		listInit = "java.util.ArrayList.<init>"
		listAdd  = "java.util.ArrayList.add"
		listGet  = "java.util.ArrayList.get"
	)
	addKey := func(b *ir.B, sb, c int) int {
		b.InvokeStaticVoid("t.cw.V.helper", sb, c)
		return sb
	}
	for _, tc := range []struct {
		name   string
		params []string // the helper's
		helper func(b *ir.B)
		call   func(b *ir.B, sb, c int) int
		uri    string
	}{
		{name: "addKey straight-line",
			params: []string{"java.lang.StringBuilder", "int"},
			helper: func(b *ir.B) {
				b.InvokeVoid(sbApp, b.Param(0), b.ConstStr("k="))
			},
			call: addKey,
			uri:  `"https://h.example.com/q?k="`},
		{name: "addKey on two branches",
			params: []string{"java.lang.StringBuilder", "int"},
			helper: func(b *ir.B) {
				b.IfZ(b.Param(1), "else")
				b.InvokeVoid(sbApp, b.Param(0), b.ConstStr("k="))
				b.Goto("join")
				b.Label("else")
				b.InvokeVoid(sbApp, b.Param(0), b.ConstStr("j="))
				b.Label("join")
			},
			call: addKey,
			uri:  `("https://h.example.com/q?k=" ∨ "https://h.example.com/q?j=")`},
		{name: "touch keeps the list aliasing the builder",
			params: []string{"java.util.ArrayList"},
			helper: func(b *ir.B) {
				b.InvokeVoid(listAdd, b.Param(0), b.ConstStr("a"))
			},
			call: func(b *ir.B, sb, c int) int {
				l := b.New("java.util.ArrayList")
				b.InvokeSpecial(listInit, l)
				b.InvokeVoid(listAdd, l, sb)
				b.InvokeStaticVoid("t.cw.V.helper", l)
				b.InvokeVoid(sbApp, sb, b.ConstStr("x"))
				return b.Invoke(listGet, l, b.ConstInt(0))
			},
			uri: `"https://h.example.com/q?x"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, c := newApp("t.cw", "t.cw.V")
			h := ir.NewMethod(c, "helper", true, tc.params, "void")
			tc.helper(h)
			h.ReturnVoid()
			h.Done()

			b := ir.NewMethod(c, "send", false, []string{"int"}, "void")
			sb := b.New("java.lang.StringBuilder")
			b.InvokeSpecial(sbInit, sb)
			b.InvokeVoid(sbApp, sb, b.ConstStr("https://h.example.com/q?"))
			sent := tc.call(b, sb, b.Param(0))
			req := b.New("org.apache.http.client.methods.HttpGet")
			b.InvokeSpecial(getInit, req, b.Invoke(sbStr, sent))
			execute(b, req)
			b.ReturnVoid()
			b.Done()
			p.Manifest.EntryPoints = []ir.EntryPoint{{Method: "t.cw.V.send", Kind: ir.EventClick}}

			if got := siglang.Canon(analyze(t, p)[0].URI); got != tc.uri {
				t.Fatalf("URI = %s, want %s", got, tc.uri)
			}
		})
	}
}
