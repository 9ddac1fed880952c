package siglang

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCatMergesAdjacentLiterals(t *testing.T) {
	s := Cat(Str("http://"), Str("www.reddit.com"), Str("/search/"))
	l, ok := s.(*Lit)
	if !ok {
		t.Fatalf("Cat of literals = %T, want *Lit", s)
	}
	if l.Val != "http://www.reddit.com/search/" {
		t.Fatalf("merged literal = %q", l.Val)
	}
}

func TestCatFlattensNestedConcat(t *testing.T) {
	inner := Cat(Str("a"), AnyString())
	s := Cat(inner, Str("b"))
	c, ok := s.(*Concat)
	if !ok {
		t.Fatalf("Cat = %T", s)
	}
	if len(c.Parts) != 3 {
		t.Fatalf("parts = %d, want 3 (flattened)", len(c.Parts))
	}
}

func TestDisjoinDeduplicates(t *testing.T) {
	a := Cat(Str("x"), AnyInt())
	b := Cat(Str("x"), AnyInt())
	s := Disjoin(a, b)
	if _, isOr := s.(*Or); isOr {
		t.Fatalf("Disjoin of equal sigs should collapse, got %s", Canon(s))
	}
	s2 := Disjoin(a, Str("y"))
	o, isOr := s2.(*Or)
	if !isOr || len(o.Alts) != 2 {
		t.Fatalf("Disjoin = %s", Canon(s2))
	}
}

func TestDisjoinDropsNil(t *testing.T) {
	if Disjoin(nil, nil) != nil {
		t.Fatal("Disjoin(nil,nil) != nil")
	}
	s := Disjoin(nil, Str("a"))
	if Canon(s) != Canon(Str("a")) {
		t.Fatalf("Disjoin(nil, a) = %s", Canon(s))
	}
}

func TestRegexRendering(t *testing.T) {
	tests := []struct {
		sig  Sig
		want string
	}{
		{Str("a.b"), `^a\.b$`},
		{AnyInt(), `^[0-9]+$`},
		{AnyString(), `^.*$`},
		{Cat(Str("id="), AnyInt()), `^id=[0-9]+$`},
		{Disjoin(Str("save"), Str("unsave")), `^(?:save|unsave)$`},
		{Repeat(Cat(Str("&x="), AnyString())), `^(?:&x=.*)*$`},
	}
	for _, tt := range tests {
		if got := Regex(tt.sig); got != tt.want {
			t.Errorf("Regex(%s) = %q, want %q", Canon(tt.sig), got, tt.want)
		}
	}
}

func TestRedditSearchSignatureMatchesPaperExample(t *testing.T) {
	// The paper's Diode example: http://www.reddit.com/search/.json?q=(.*)&sort=(.*)
	sig := Cat(
		Str("http://www.reddit.com/search/.json?q="),
		AnyString(),
		Str("&sort="),
		AnyString(),
	)
	re, err := Compile(sig)
	if err != nil {
		t.Fatal(err)
	}
	if !re.MatchString("http://www.reddit.com/search/.json?q=cats&sort=top") {
		t.Fatal("signature rejects a conforming URI")
	}
	if re.MatchString("http://evil.example.com/search/.json?q=cats&sort=top") {
		t.Fatal("signature accepts a non-conforming URI")
	}
}

func TestMergeCollapsesEqualAndMergesJSON(t *testing.T) {
	a := &JSON{Root: &Obj{}}
	a.Root.(*Obj).Put("modhash", AnyString())
	b := &JSON{Root: &Obj{}}
	b.Root.(*Obj).Put("cookie", AnyString())
	m := Merge(a, b)
	j, ok := m.(*JSON)
	if !ok {
		t.Fatalf("Merge = %T", m)
	}
	keys := objKeys(j.Root.(*Obj))
	if len(keys) != 2 || keys[0] != "modhash" || keys[1] != "cookie" {
		t.Fatalf("merged keys = %v", keys)
	}

	// Merges leave their operands alone. Each case folds its operands with
	// Merge, as AppendJSONSchema and the compiled matcher fold an array's
	// elements; the operands render the same before and after.
	parse := func(src string) Sig {
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		return s
	}
	for _, tc := range []struct {
		name     string
		operands []Sig
		want     string
	}{
		{"obj/obj shared key disjoins",
			[]Sig{parse(`obj{"dir": "1", "a": ?int}`), parse(`obj{"dir": "-1", ?key: ?string}`)},
			`obj{"dir": ("1" ∨ "-1"), "a": ?int, ?key: ?string}`},
		{"json/json",
			[]Sig{parse(`json(obj{"modhash": ?string})`), parse(`json(obj{"cookie": ?string, "modhash": ?int})`)},
			`json(obj{"modhash": (?string ∨ ?int), "cookie": ?string})`},
		{"array element fold",
			parse(`array[obj{"a": ?int}, obj{"b": ?string}, obj{"a": ?string}]`).(*Arr).Elems,
			`obj{"a": (?int ∨ ?string), "b": ?string}`},
	} {
		var before []string
		var item Sig
		for _, o := range tc.operands {
			before = append(before, Canon(o))
			item = Merge(item, o)
		}
		if got := Canon(item); got != tc.want {
			t.Errorf("%s: merge = %s, want %s", tc.name, got, tc.want)
		}
		for i, o := range tc.operands {
			if after := Canon(o); after != before[i] {
				t.Errorf("%s: operand %d rewritten by the merge:\n before %s\n after  %s",
					tc.name, i, before[i], after)
			}
		}
	}
}

func TestObjPutDisjoinsConflictingValues(t *testing.T) {
	o := &Obj{}
	o.Put("dir", Str("1"))
	o.Put("dir", Str("-1"))
	v := o.Get("dir")
	if _, isOr := v.(*Or); !isOr {
		t.Fatalf("conflicting Put = %s, want disjunction", Canon(v))
	}
}

func TestKeywordsFromJSONAndQuery(t *testing.T) {
	o := &Obj{}
	o.Put("relay", AnyString())
	inner := &Obj{}
	inner.Put("artist", AnyString())
	o.Put("songs", inner)
	sig := Cat(Str("user="), AnyString(), Str("&passwd="), AnyString(), Str("&api_type=json"))
	kw := Keywords(&JSON{Root: o})
	want := []string{"artist", "relay", "songs"}
	if strings.Join(kw, ",") != strings.Join(want, ",") {
		t.Fatalf("JSON keywords = %v, want %v", kw, want)
	}
	kw2 := Keywords(sig)
	want2 := []string{"api_type", "passwd", "user"}
	if strings.Join(kw2, ",") != strings.Join(want2, ",") {
		t.Fatalf("query keywords = %v, want %v", kw2, want2)
	}
}

func TestJSONSchemaRendering(t *testing.T) {
	o := &Obj{}
	o.Put("url", AnyString())
	o.Put("height", AnyInt())
	got := string(AppendJSONSchema(nil, &JSON{Root: o}))
	for _, frag := range []string{`"url":{"type":"string"}`, `"height":{"type":"number"}`, `"type":"object"`} {
		if !strings.Contains(got, frag) {
			t.Errorf("schema missing %q: %s", frag, got)
		}
	}
}

func TestDTDRendering(t *testing.T) {
	x := &XML{Root: &Elem{
		Tag:   "vast",
		Attrs: []KV{{Key: "version"}},
		Children: []*Elem{
			{Tag: "ad", Children: []*Elem{{Tag: "mediafile", Text: AnyString()}}},
		},
	}}
	dtd := string(AppendDTD(nil, x))
	for _, frag := range []string{"<!ELEMENT vast (ad)>", "<!ATTLIST vast version CDATA #IMPLIED>", "<!ELEMENT mediafile (#PCDATA)>"} {
		if !strings.Contains(dtd, frag) {
			t.Errorf("DTD missing %q:\n%s", frag, dtd)
		}
	}
}

// Property: every generated signature compiles to a valid regexp.
func TestRegexAlwaysCompiles(t *testing.T) {
	f := func(lits []string, ints []bool) bool {
		parts := make([]Sig, 0, len(lits)+len(ints))
		for _, l := range lits {
			parts = append(parts, Str(l))
		}
		for _, b := range ints {
			if b {
				parts = append(parts, AnyInt())
			} else {
				parts = append(parts, AnyString())
			}
		}
		sig := Cat(parts...)
		_, err := Compile(sig)
		if err != nil {
			return false
		}
		_, err = Compile(Repeat(sig))
		if err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a literal signature always matches exactly its own literal.
func TestLiteralSelfMatch(t *testing.T) {
	f := func(s string) bool {
		re, err := Compile(Str(s))
		if err != nil {
			return false
		}
		return re.MatchString(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonStableForMapKeys(t *testing.T) {
	a := Cat(Str("x"), AnyInt())
	b := Cat(Str("x"), AnyInt())
	if Canon(a) != Canon(b) {
		t.Fatal("structurally equal sigs canonize differently")
	}
	if !Equal(a, b) {
		t.Fatal("Equal is false for equal sigs")
	}
}
