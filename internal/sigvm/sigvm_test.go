package sigvm

import (
	"fmt"
	"testing"

	"extractocol/internal/siglang"
)

// textSigs covers every construct the regex renderer can emit: literals
// (including metacharacters QuoteMeta escapes), typed unknowns, nested
// repetition and disjunction, empty bodies, and structured trees embedded
// in text positions.
func textSigs(t testing.TB) []siglang.Sig {
	sigs := []siglang.Sig{
		siglang.Str(""),
		siglang.Str("https://api.example.com/v1/items"),
		siglang.Str("dots.and+plus(paren)[set]{brace}^$|?*\\"),
		siglang.Cat(siglang.Str("https://api.example.com/v"), siglang.AnyInt(), siglang.Str("/items?count="), siglang.AnyInt()),
		siglang.Cat(siglang.Str("/u/"), siglang.AnyString(), siglang.Str("/p/"), siglang.AnyString()),
		siglang.AnyString(),
		siglang.AnyInt(),
		&siglang.Unknown{Type: siglang.VBool},
		siglang.Repeat(siglang.Cat(siglang.Str("&tag="), siglang.AnyString())),
		siglang.Repeat(siglang.Str("")), // empty repetition body: epsilon cycle
		&siglang.Or{},                   // "(?:)"
		&siglang.Or{Alts: []siglang.Sig{siglang.Str("a")}},
		&siglang.Or{Alts: []siglang.Sig{siglang.Str("GET"), siglang.Str("POST"), siglang.AnyString()}},
		siglang.Cat(siglang.Str("id="), &siglang.Or{Alts: []siglang.Sig{siglang.AnyInt(), siglang.Str("none")}}),
		&siglang.Obj{Pairs: []siglang.KV{{Key: "k", Val: siglang.Any()}}}, // structured in text position: ".*"
		siglang.Cat(siglang.Str("pre-"), siglang.Repeat(&siglang.Or{Alts: []siglang.Sig{siglang.Str("ab"), siglang.AnyInt()}}), siglang.Str("-post")),
	}
	for _, src := range []string{
		`concat("https://h/", ?string, "/x")`,
		`rep{("a" ∨ "b")}`,
		`(num(1) ∨ num(2) ∨ ?bool)`,
	} {
		s, err := siglang.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		sigs = append(sigs, s)
	}
	return sigs
}

func textPayloads() []string {
	return []string{
		"",
		"https://api.example.com/v1/items",
		"https://api.example.com/v2/items?count=17",
		"https://api.example.com/v/items?count=",
		"/u/alice/p/42",
		"/u/alice/p/42\n",
		"line1\nline2",
		"true", "false", "truefalse", "tru",
		"0123456789", "12a34",
		"&tag=x&tag=y", "&tag=",
		"id=17", "id=none", "id=",
		"dots.and+plus(paren)[set]{brace}^$|?*\\",
		"pre--post", "pre-abab12-post", "pre-ab12x-post",
		"unicode→snowman☃", "invalid\xff\xfebytes",
		"GET", "POST", "anything",
	}
}

// TestTextVMMatchesOracle compares the Pike VM against the regexp oracle
// (match verdict and byte accounting) over the full construct × payload
// cross product.
func TestTextVMMatchesOracle(t *testing.T) {
	for _, sig := range textSigs(t) {
		single := CompileSingle(sig)
		for _, payload := range textPayloads() {
			wantOK, wantSt := MatchText(sig, payload)
			gotOK, gotSt := single.MatchText(payload)
			if wantOK != gotOK || wantSt != gotSt {
				t.Errorf("MatchText(%s, %q): interp (%v, %+v), vm (%v, %+v)",
					siglang.Canon(sig), payload, wantOK, wantSt, gotOK, gotSt)
			}
		}
	}
}

func TestQueryVMMatchesOracle(t *testing.T) {
	sigs := []siglang.Sig{
		siglang.Str("count=&tag="),
		siglang.Cat(siglang.Str("user="), siglang.AnyString(), siglang.Str("&id="), siglang.AnyInt()),
		siglang.AnyString(), // no known keys
		&siglang.Obj{Pairs: []siglang.KV{{Key: "q", Val: siglang.Any()}, {Key: "page", Val: siglang.AnyInt()}}},
	}
	queries := []string{
		"",
		"count=3",
		"count=3&tag=news",
		"tag=news&other=1",
		"noequals",
		"count=3&noequals&tag=",
		"&&",
		"a=1&a=2&a=3",
		"user=bob&id=7",
		"q=term&page=2&extra=x",
		"trailing=1&",
	}
	for _, sig := range sigs {
		single := CompileSingle(sig)
		for _, q := range queries {
			wantOK, wantSt := MatchQuery(sig, q)
			gotOK, gotSt := single.MatchQuery(q)
			if wantOK != gotOK || wantSt != gotSt {
				t.Errorf("MatchQuery(%s, %q): interp (%v, %+v), vm (%v, %+v)",
					siglang.Canon(sig), q, wantOK, wantSt, gotOK, gotSt)
			}
		}
	}
}

func jsonSigs(t testing.TB) []siglang.Sig {
	var sigs []siglang.Sig
	for _, src := range []string{
		`obj{"user": ?string, "id": ?int}`,
		`obj{"user": ?string, ?key: num(1), "hole": ?any}`,
		`json(obj{"data": obj{"items": array[obj{"name": ?string}...], "total": ?int}})`,
		`array[num(1), "two", ?bool]`,
		`array[obj{"a": ?int}, obj{"b": ?string}]`, // element confluence-merge
		`(obj{"ok": ?bool} ∨ obj{"error": ?string})`,
		`"literal"`,
		`num(42)`,
		`?any`,
		`concat("v", ?int)`, // string-leaf regex
		`rep{("x" ∨ ?int)}`,
		`obj{}`,
		`array[]`,
	} {
		s, err := siglang.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		sigs = append(sigs, s)
	}
	return sigs
}

func jsonPayloads() []string {
	return []string{
		`{}`,
		`{"user":"bob","id":7}`,
		`{"user":"bob","id":7,"extra":[1,2,3]}`,
		`{"user":"bob"}`,
		`{"id":"not-an-int"}`,
		`{"data":{"items":[{"name":"a"},{"name":"b"}],"total":2}}`,
		`{"data":{"items":[{"nope":1}],"total":"x"}}`,
		`[1,"two",true]`,
		`[{"a":1},{"b":"s"},{"a":2,"b":"t"}]`,
		`[]`,
		`{"ok":true}`,
		`{"error":"boom"}`,
		`{"neither":null}`,
		`"literal"`,
		`"v17"`,
		`"v"`,
		`42`,
		`41.5`,
		`true`,
		`null`,
		`"x12x"`,
		`not json at all`,
		`{"trunc":`,
	}
}

// TestJSONVMMatchesOracle compares the flattened JSON matcher against the
// interpretive walk, including the error behavior on malformed payloads.
func TestJSONVMMatchesOracle(t *testing.T) {
	for _, sig := range jsonSigs(t) {
		// Two rounds: the compiled program must behave like every
		// interpretive call, first or later.
		single := CompileSingle(sig)
		before := siglang.Canon(sig)
		for round := 0; round < 2; round++ {
			for _, payload := range jsonPayloads() {
				wantOK, wantSt, wantErr := MatchJSON(sig, []byte(payload))
				gotOK, gotSt, gotErr := single.MatchJSON([]byte(payload))
				if wantOK != gotOK || wantSt != gotSt || (wantErr == nil) != (gotErr == nil) {
					t.Errorf("round %d MatchJSON(%s, %s): interp (%v, %+v, %v), vm (%v, %+v, %v)",
						round, before, payload, wantOK, wantSt, wantErr, gotOK, gotSt, gotErr)
				}
			}
		}
	}
}

// TestCompileDoesNotMutateSignature pins that compiling a bundle leaves the
// report's signature trees untouched: the array fold merges the element
// signatures, and siglang.Merge writes neither operand.
func TestCompileDoesNotMutateSignature(t *testing.T) {
	src := `array[obj{"a": ?int}, obj{"b": ?string}]`
	sig, err := siglang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	before := siglang.Canon(sig)
	CompileSingle(sig)
	if after := siglang.Canon(sig); after != before {
		t.Fatalf("compilation mutated the signature:\n before %s\n after  %s", before, after)
	}
}

func TestXMLVMMatchesOracle(t *testing.T) {
	var sigs []*siglang.XML
	for _, src := range []string{
		`xml(<rss version="2.0" lang=?any><channel><item>?string</item></channel>"tail"</rss>)`,
		`xml(<a><b></b><b></b></a>)`,
	} {
		s, err := siglang.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		sigs = append(sigs, s.(*siglang.XML))
	}
	// The wildcard document root the response builder produces.
	sigs = append(sigs, &siglang.XML{Root: &siglang.Elem{
		Tag:      "*",
		Children: []*siglang.Elem{{Tag: "item", Text: siglang.AnyString()}},
	}})
	payloads := []string{
		`<rss version="2.0" lang="en"><channel><item>hello</item></channel>trailing</rss>`,
		`<rss version="2.0"><channel><item>hello</item><junk attr="1">x</junk></channel></rss>`,
		`<rss><channel></channel></rss>`,
		`<a><b></b></a>`,
		`<a><b><c></c></b></a>`,
		`<other><deep><item>found</item></deep></other>`,
		`<wrong/>`,
		`not xml`,
		``,
	}
	for _, sig := range sigs {
		single := CompileSingle(sig)
		if !single.HasXML() {
			t.Fatalf("no XML program for %s", siglang.Canon(sig))
		}
		for _, payload := range payloads {
			wantOK, wantSt, wantErr := MatchXML(sig, []byte(payload))
			gotOK, gotSt, gotErr := single.MatchXML([]byte(payload))
			if wantOK != gotOK || wantSt != gotSt || (wantErr == nil) != (gotErr == nil) {
				t.Errorf("MatchXML(%s, %s): interp (%v, %+v, %v), vm (%v, %+v, %v)",
					siglang.Canon(sig), payload, wantOK, wantSt, wantErr, gotOK, gotSt, gotErr)
			}
		}
	}
}

// TestMatcherScratchReuse runs many programs through one matcher to
// exercise generation bumping and scratch growth across differently sized
// programs.
func TestMatcherScratchReuse(t *testing.T) {
	sigs := textSigs(t)
	payloads := textPayloads()
	for round := 0; round < 3; round++ {
		for _, sig := range sigs {
			single := CompileSingle(sig)
			for _, p := range payloads {
				want, _ := MatchText(sig, p)
				for i := 0; i < 2; i++ { // same matcher, repeated
					if got, _ := single.MatchText(p); got != want {
						t.Fatalf("round %d repeat %d: MatchText(%s, %q) = %v, want %v",
							round, i, siglang.Canon(sig), p, got, want)
					}
				}
			}
		}
	}
}

// TestTextVMDeepSignature checks the VM against a signature large enough
// to force scratch growth and long thread lists.
func TestTextVMDeepSignature(t *testing.T) {
	parts := []siglang.Sig{siglang.Str("/root")}
	payload := "/root"
	for i := 0; i < 50; i++ {
		parts = append(parts, siglang.Str(fmt.Sprintf("/seg%d/", i)), siglang.AnyString())
		payload += fmt.Sprintf("/seg%d/val%d", i, i)
	}
	sig := siglang.Cat(parts...)
	single := CompileSingle(sig)
	for _, p := range []string{payload, payload + "\n", "/root/seg0/"} {
		wantOK, wantSt := MatchText(sig, p)
		gotOK, gotSt := single.MatchText(p)
		if wantOK != gotOK || wantSt != gotSt {
			t.Errorf("deep sig on %q: interp (%v, %+v), vm (%v, %+v)", p, wantOK, wantSt, gotOK, gotSt)
		}
	}
}
