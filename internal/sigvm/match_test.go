package sigvm

import (
	"strings"
	"testing"
	"testing/quick"

	"extractocol/internal/siglang"
)

// Byte-accounting expectations of the four matching modes. Every case runs
// through the interpretive oracle and the compiled matcher alike, so an
// expectation pins both sides and not only their agreement.

type textMode struct {
	name  string
	match func(string) (bool, siglang.ByteStats)
}

// textModes returns the oracle's and the compiled text matcher for s.
func textModes(s siglang.Sig) []textMode {
	single := CompileSingle(s)
	return []textMode{
		{"oracle", func(p string) (bool, siglang.ByteStats) { return MatchText(s, p) }},
		{"vm", single.MatchText},
	}
}

// queryModes returns the oracle's and the compiled query matcher for s.
func queryModes(s siglang.Sig) []textMode {
	single := CompileSingle(s)
	return []textMode{
		{"oracle", func(q string) (bool, siglang.ByteStats) { return MatchQuery(s, q) }},
		{"vm", single.MatchQuery},
	}
}

type bodyMode struct {
	name  string
	match func([]byte) (bool, siglang.ByteStats, error)
}

// jsonModes returns the oracle's and the compiled JSON matcher for s. The
// program is compiled before the oracle first runs, from the pristine tree.
func jsonModes(s siglang.Sig) []bodyMode {
	single := CompileSingle(s)
	return []bodyMode{
		{"oracle", func(p []byte) (bool, siglang.ByteStats, error) { return MatchJSON(s, p) }},
		{"vm", single.MatchJSON},
	}
}

// xmlModes returns the oracle's and the compiled XML matcher for s.
func xmlModes(s *siglang.XML) []bodyMode {
	single := CompileSingle(s)
	return []bodyMode{
		{"oracle", func(p []byte) (bool, siglang.ByteStats, error) { return MatchXML(s, p) }},
		{"vm", single.MatchXML},
	}
}

func TestMatchQueryAccounting(t *testing.T) {
	sig := siglang.Cat(siglang.Str("id="), siglang.AnyString(), siglang.Str("&uh="), siglang.AnyString())
	for _, m := range queryModes(sig) {
		okMatch, st := m.match("id=t3_abc&uh=f0f0f0")
		if !okMatch {
			t.Fatalf("%s: MatchQuery failed", m.name)
		}
		// "id=" (3) + "&uh=" (4) = 7 key bytes; values 6+6=12.
		if st.Key != 7 || st.Value != 12 || st.None != 0 {
			t.Fatalf("%s: stats = %+v", m.name, st)
		}
	}
}

func TestMatchQueryUnknownKeyGoesToNone(t *testing.T) {
	sig := siglang.Cat(siglang.Str("id="), siglang.AnyString())
	for _, m := range queryModes(sig) {
		_, st := m.match("id=1&zzz=9")
		if st.None != len("&zzz=9") {
			t.Fatalf("%s: None = %d, want %d", m.name, st.None, len("&zzz=9"))
		}
	}
}

func TestMatchJSONValidAndAccounting(t *testing.T) {
	o := &siglang.Obj{}
	o.Put("modhash", siglang.AnyString())
	o.Put("cookie", siglang.AnyString())
	for _, m := range jsonModes(&siglang.JSON{Root: o}) {
		ok, st, err := m.match([]byte(`{"modhash":"abc","cookie":"xyz","extra":42}`))
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !ok {
			t.Fatalf("%s: expected valid match (all sig keys present)", m.name)
		}
		if st.Key == 0 || st.Value == 0 || st.None == 0 {
			t.Fatalf("%s: expected all three buckets populated: %+v", m.name, st)
		}
	}
}

func TestMatchJSONMissingKeyInvalid(t *testing.T) {
	o := &siglang.Obj{}
	o.Put("modhash", siglang.AnyString())
	for _, m := range jsonModes(&siglang.JSON{Root: o}) {
		ok, _, err := m.match([]byte(`{"other":1}`))
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if ok {
			t.Fatalf("%s: match should fail when a signature key is absent", m.name)
		}
	}
}

func TestMatchJSONNestedAndArray(t *testing.T) {
	song := &siglang.Obj{}
	song.Put("artist", siglang.AnyString())
	songs := &siglang.Obj{}
	songs.Put("song", &siglang.Arr{Elems: []siglang.Sig{song}, Open: true})
	root := &siglang.Obj{}
	root.Put("relay", siglang.AnyString())
	root.Put("songs", songs)
	payload := `{"relay":"http://cdn/x","songs":{"song":[{"artist":"stirus","id":"837"}]}}`
	for _, m := range jsonModes(&siglang.JSON{Root: root}) {
		ok, st, err := m.match([]byte(payload))
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !ok {
			t.Fatalf("%s: nested match failed", m.name)
		}
		if st.None == 0 {
			t.Fatalf("%s: unread keys (id) should land in None", m.name)
		}
	}
}

func TestMatchJSONRejectsNonJSON(t *testing.T) {
	for _, m := range jsonModes(&siglang.JSON{Root: &siglang.Obj{}}) {
		if _, _, err := m.match([]byte("not json")); err == nil {
			t.Fatalf("%s: expected parse error", m.name)
		}
	}
}

func TestMatchTextLiteralAccounting(t *testing.T) {
	sig := siglang.Cat(siglang.Str("https://api.ted.com/v1/talks/"), siglang.AnyInt(),
		siglang.Str("/ad.json?api-key="), siglang.AnyString())
	for _, m := range textModes(sig) {
		ok, st := m.match("https://api.ted.com/v1/talks/42/ad.json?api-key=K1")
		if !ok {
			t.Fatalf("%s: MatchText failed", m.name)
		}
		wantKey := len("https://api.ted.com/v1/talks/") + len("/ad.json?api-key=")
		if st.Key != wantKey {
			t.Fatalf("%s: Key = %d, want %d", m.name, st.Key, wantKey)
		}
		if st.Value != len("42")+len("K1") {
			t.Fatalf("%s: Value = %d", m.name, st.Value)
		}
	}
}

// jsonEdgeCases are payloads on which walking the bytes could diverge
// from decoding them with encoding/json: duplicate keys, escapes, invalid
// UTF-8 and surrogates, HTML-escaped and line-separator characters,
// number spellings, nesting depth, trailing bytes, null in place of a
// container, and alternatives that re-walk the same bytes. Each pins the
// verdict and the byte accounting; FuzzSigVM takes them as seeds.
var jsonEdgeCases = []struct {
	name, sig, payload string
	ok                 bool
	st                 siglang.ByteStats
	err                bool
}{
	// The last duplicate supplies the value, the verdict and the bytes.
	{"dup-last-passes", `obj{"a": num(1)}`, `{"a":"first value","a":1}`, true, siglang.ByteStats{Key: 4, Value: 1}, false},
	{"dup-last-fails", `obj{"a": num(1)}`, `{"a":1,"a":"last value"}`, false, siglang.ByteStats{Key: 4, Value: 12}, false},
	{"dup-sized-once", `?any`, `{"k":"long value","k":1}`, true, siglang.ByteStats{Value: 7}, false},
	{"dup-unknown-key", `obj{"a": ?int}`, `{"a":1,"z":"long value","z":2}`, true, siglang.ByteStats{Key: 4, Value: 1, None: 5}, false},
	{"dup-many-keys", `obj{"a": num(1)}`, `{"a":0,"b":0,"c":0,"d":0,"e":0,"f":0,"g":0,"h":0,"i":0,"a":1}`, true, siglang.ByteStats{Key: 4, Value: 1, None: 40}, false},
	// Keys are unquoted before lookup.
	{"escaped-key", `obj{"a": ?int}`, `{"\u0061":7}`, true, siglang.ByteStats{Key: 4, Value: 1}, false},
	{"escaped-key-dup", `obj{"a": num(1)}`, `{"a":2,"\u0061":1}`, true, siglang.ByteStats{Key: 4, Value: 1}, false},
	// Invalid UTF-8 and unpaired surrogates decode to U+FFFD.
	{"invalid-utf8", `obj{"s": ?string}`, "{\"s\":\"a\xffb\"}", true, siglang.ByteStats{Key: 4, Value: 7}, false},
	{"invalid-utf8-literal", "obj{\"s\": \"a\ufffdb\"}", "{\"s\":\"a\xffb\"}", true, siglang.ByteStats{Key: 4, Value: 7}, false},
	{"surrogate-pair", `obj{"s": ?string}`, `{"s":"\ud83d\ude00"}`, true, siglang.ByteStats{Key: 4, Value: 6}, false},
	{"surrogate-high-alone", "obj{\"s\": \"\ufffdx\"}", `{"s":"\ud83dx"}`, true, siglang.ByteStats{Key: 4, Value: 6}, false},
	{"surrogate-low-first", `obj{"s": ?string}`, `{"s":"\ude00\ud83d"}`, true, siglang.ByteStats{Key: 4, Value: 8}, false},
	{"surrogate-high-high", `obj{"s": ?string}`, `{"s":"\ud83d\ud83d\ude00"}`, true, siglang.ByteStats{Key: 4, Value: 9}, false},
	// <, > and & re-marshal as \u003c-style escapes, U+2028 as \u2028.
	{"html-chars", `obj{"s": ?string}`, `{"s":"<a&b>"}`, true, siglang.ByteStats{Key: 4, Value: 22}, false},
	{"line-separator", `obj{"s": ?string}`, "{\"s\":\"x\u2028\"}", true, siglang.ByteStats{Key: 4, Value: 9}, false},
	{"escaped-line-separator", `obj{"s": concat("x", ?string)}`, `{"s":"x\u2028"}`, true, siglang.ByteStats{Key: 4, Value: 9}, false},
	{"escaped-slash", `obj{"u": "http://h/p"}`, `{"u":"http:\/\/h\/p"}`, true, siglang.ByteStats{Key: 4, Value: 12}, false},
	// Numbers are sized as the encoder prints the parsed float64.
	{"negative-zero", `obj{"n": ?int}`, `{"n":-0}`, true, siglang.ByteStats{Key: 4, Value: 2}, false},
	{"exponent-upper", `obj{"n": num(100)}`, `{"n":1E+2}`, true, siglang.ByteStats{Key: 4, Value: 3}, false},
	{"exponent-small", `obj{"n": ?int}`, `{"n":1e-7}`, true, siglang.ByteStats{Key: 4, Value: 4}, false},
	{"exponent-large", `obj{"n": ?int}`, `{"n":1e21}`, true, siglang.ByteStats{Key: 4, Value: 5}, false},
	{"long-integer", `obj{"n": ?int}`, `{"n":99999999999999999}`, true, siglang.ByteStats{Key: 4, Value: 18}, false},
	{"overflow", `obj{"n": ?int}`, `{"n":1e400}`, false, siglang.ByteStats{}, true},
	{"overflow-overridden", `obj{"n": ?int}`, `{"n":1e400,"n":1}`, false, siglang.ByteStats{}, true},
	{"overflow-unread", `obj{}`, `{"x":[-1e400]}`, false, siglang.ByteStats{}, true},
	// encoding/json's nesting limit: 10 000 levels decode, 10 001 do not.
	{"depth-10000", `?any`, strings.Repeat("[", 10000) + strings.Repeat("]", 10000), true, siglang.ByteStats{Value: 20000}, false},
	{"depth-10001", `?any`, strings.Repeat("[", 10001) + strings.Repeat("]", 10001), false, siglang.ByteStats{}, true},
	// Trailing bytes fail the payload; surrounding whitespace does not.
	{"trailing-garbage", `obj{"a": ?int}`, `{"a":1} x`, false, siglang.ByteStats{}, true},
	{"surrounding-whitespace", `obj{"a": ?int}`, " \n{ \"a\" : 1 }\t\r ", true, siglang.ByteStats{Key: 4, Value: 1}, false},
	// null is neither an object nor an array.
	{"null-for-object", `obj{"a": ?int}`, `null`, false, siglang.ByteStats{None: 4}, false},
	{"null-for-array", `array[?int]`, `null`, false, siglang.ByteStats{None: 4}, false},
	{"null-for-nested-object", `obj{"o": obj{"x": ?int}}`, `{"o":null}`, false, siglang.ByteStats{Key: 4, None: 4}, false},
	// An Or re-walks the same bytes per alternative; the first match
	// supplies the charges, and no match charges the value as None.
	{"or-second-shape", `(obj{"a": ?int} ∨ obj{"b": ?string})`, `{"b":"x"}`, true, siglang.ByteStats{Key: 4, Value: 3}, false},
	{"or-no-shape", `(obj{"a": ?int} ∨ obj{"b": ?string})`, `{"c":1}`, false, siglang.ByteStats{None: 7}, false},
	{"or-nested", `obj{"v": (obj{"a": ?int} ∨ obj{"b": ?string})}`, `{"v":{"b":"x","a":1}}`, true, siglang.ByteStats{Key: 8, Value: 1, None: 7}, false},
}

func TestMatchJSONEdgeCases(t *testing.T) {
	for _, tc := range jsonEdgeCases {
		sig, err := siglang.Parse(tc.sig)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, m := range jsonModes(sig) {
			ok, st, err := m.match([]byte(tc.payload))
			if ok != tc.ok || st != tc.st || (err != nil) != tc.err {
				t.Errorf("%s/%s: (%v, %+v, %v), want (%v, %+v, error %v)",
					tc.name, m.name, ok, st, err, tc.ok, tc.st, tc.err)
			}
		}
	}
}

func TestMatchXML(t *testing.T) {
	x := &siglang.XML{Root: &siglang.Elem{Tag: "ads", Children: []*siglang.Elem{{Tag: "url", Text: siglang.AnyString()}}}}
	for _, m := range xmlModes(x) {
		ok, st, err := m.match([]byte(`<ads><url>http://a/b.mp4</url><skip>1</skip></ads>`))
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !ok {
			t.Fatalf("%s: XML match failed", m.name)
		}
		if st.Key == 0 || st.None == 0 {
			t.Fatalf("%s: stats = %+v", m.name, st)
		}
	}
}

func TestMatchXMLMissingTagInvalid(t *testing.T) {
	x := &siglang.XML{Root: &siglang.Elem{Tag: "ads", Children: []*siglang.Elem{{Tag: "url"}}}}
	for _, m := range xmlModes(x) {
		ok, _, err := m.match([]byte(`<ads><other/></ads>`))
		if err != nil || ok {
			t.Fatalf("%s: ok=%v err=%v, want invalid match", m.name, ok, err)
		}
	}
}

// Property: query matching accounts every byte of the query exactly once.
func TestMatchQueryAccountsAllBytes(t *testing.T) {
	f := func(keys []string, vals []string) bool {
		// Build a query from sanitized keys and values.
		var sigParts []siglang.Sig
		query := ""
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		if n == 0 {
			return true
		}
		for i := 0; i < n; i++ {
			k := sanitizeKey(keys[i])
			v := sanitizeVal(vals[i])
			if k == "" {
				continue
			}
			if query != "" {
				query += "&"
				sigParts = append(sigParts, siglang.Str("&"))
			}
			query += k + "=" + v
			sigParts = append(sigParts, siglang.Str(k+"="), siglang.AnyString())
		}
		if query == "" {
			return true
		}
		for _, m := range queryModes(siglang.Cat(sigParts...)) {
			if _, st := m.match(query); st.Total() != len(query) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sanitizeKey(s string) string {
	out := ""
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			out += string(r)
		}
	}
	if len(out) > 8 {
		out = out[:8]
	}
	return out
}

func sanitizeVal(s string) string {
	out := ""
	for _, r := range s {
		if r != '&' && r != '=' && r < 128 {
			out += string(r)
		}
	}
	return out
}
