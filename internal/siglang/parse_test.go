package siglang

import "testing"

// corpusSigs covers every node kind and the tricky renderings: empty
// containers, nil values that print as wildcards, nested structures, and
// unicode in literals.
func corpusSigs() []Sig {
	return []Sig{
		Str(""),
		Str(`he said "hi" ∨ left`),
		Str("tab\tnewline\nunicode→"),
		Num("42"),
		Num("-3.5e2"),
		Any(),
		AnyString(),
		AnyInt(),
		&Unknown{Type: VBool},
		Cat(Str("https://api.example.com/v"), AnyInt(), Str("/items?count="), AnyInt()),
		&Concat{},
		Repeat(Cat(Str("&tag="), AnyString())),
		&Or{Alts: []Sig{Str("a")}},
		Disjoin(Str("GET"), Str("POST"), AnyString()),
		&Obj{Pairs: []KV{
			{Key: "user", Val: AnyString()},
			{Key: "ids", Val: &Arr{Elems: []Sig{AnyInt()}, Open: true}},
			{Dyn: true, Val: Num("1")},
			{Key: "hole", Val: nil}, // renders as ?any
		}},
		&Arr{},
		&Arr{Open: true},
		&Arr{Elems: []Sig{Str("x"), &Obj{Pairs: []KV{{Key: "k", Val: Any()}}}}},
		&JSON{Root: &Obj{Pairs: []KV{{Key: "data", Val: &JSON{Root: nil}}}}},
		&JSON{Root: nil},
		&XML{Root: nil},
		&XML{Root: &Elem{
			Tag:   "rss",
			Attrs: []KV{{Key: "version", Val: Str("2.0")}, {Key: "lang", Val: nil}},
			Children: []*Elem{
				{Tag: "channel", Children: []*Elem{
					{Tag: "item", Text: AnyString()},
					nil, // renders as ?elem
				}},
			},
			Text: Cat(Str("tail:"), AnyInt()),
		}},
		nil, // renders as <nil>
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, sig := range corpusSigs() {
		want := Canon(sig)
		got, err := Parse(want)
		if err != nil {
			t.Errorf("Parse(%q): %v", want, err)
			continue
		}
		if c := Canon(got); c != want {
			t.Errorf("round trip changed canonical form:\n in  %q\n out %q", want, c)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"bogus",
		`"unterminated`,
		"num(12",
		"concat(?any",
		"concat(?any,?int)", // missing space after comma
		"rep{?any",
		"(?any ∨ )",
		`obj{"k" ?any}`, // missing ": "
		"obj{?key: }",
		"array[?any",
		"array[?any...", // missing ]
		"json(?any",
		"xml(<a></b>)", // mismatched tags
		"xml(<a x>?any</a>)",
		"xml(<>?any</>)",
		`"ok" trailing`,
		"??any",
	}
	for _, s := range bad {
		if sig, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted malformed input as %q", s, Canon(sig))
		}
	}
}

func TestParseDepthLimit(t *testing.T) {
	deep := ""
	for i := 0; i < maxParseDepth+10; i++ {
		deep += "rep{"
	}
	deep += "?any"
	for i := 0; i < maxParseDepth+10; i++ {
		deep += "}"
	}
	if _, err := Parse(deep); err == nil {
		t.Fatal("accepted signature nested beyond the depth limit")
	}
	// A tree comfortably inside the limit must still parse.
	ok := "rep{rep{rep{rep{?int}}}}"
	if _, err := Parse(ok); err != nil {
		t.Fatalf("rejected shallow nesting: %v", err)
	}
}

// FuzzSiglangCanon checks the parser/renderer contract: any input the
// parser accepts must render to a canonical form that re-parses to the
// same canonical form (Parse∘Canon is a fixed point), and no input —
// however malformed — may panic or overflow the stack. Every append
// renderer must also equal its oracle on what the parser accepts.
func FuzzSiglangCanon(f *testing.F) {
	for _, sig := range oracleSigs() {
		f.Add(Canon(sig))
	}
	f.Add("obj{")
	f.Add("xml(<a b=?any><c></c>?string</a>)")
	// A report's XML response whose root has a nil child.
	f.Add("xml(<feed><entry k=?any>?string</entry>?elem</feed>)")
	f.Add("(num(1) ∨ num(2) ∨ ?bool)")

	f.Fuzz(func(t *testing.T, s string) {
		sig, err := Parse(s)
		if err != nil {
			return
		}
		c1 := Canon(sig)
		sig2, err := Parse(c1)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q fails to re-parse: %v", c1, s, err)
		}
		if c2 := Canon(sig2); c2 != c1 {
			t.Fatalf("canonical form is not a fixed point:\n in  %q\n c1  %q\n c2  %q", s, c1, c2)
		}
		checkRenderersMatchOracle(t, sig, []Sig{sig2, nil, Str(c1), AnyString()})
	})
}
