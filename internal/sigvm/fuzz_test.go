package sigvm

import (
	"encoding/json"
	"testing"

	"extractocol/internal/siglang"
)

// FuzzSigVM is the equivalence fuzz gate between the compiled matcher and
// the interpretive oracle (oracle_test.go: MatchText / MatchQuery /
// MatchJSON / MatchXML): any signature the parser accepts, compiled and
// run against any payload, must produce the oracle's exact verdict and
// ByteStats in every matching mode — and neither side may panic. The
// signature corpus is seeded from the parser's canonical test corpus
// (siglang/parse_test.go's corpusSigs renderings) plus shapes that stress
// each engine: repetition epsilon cycles for the Pike VM, dynamic keys and
// array confluence-merges for the JSON walk, wildcard roots for XML, and
// the payloads of the JSON edge-case table.
// testdata/fuzz/FuzzSigVM holds the regression inputs a fuzzing run has
// found; plain `go test` replays them with the seeds.
func FuzzSigVM(f *testing.F) {
	sigSeeds := []string{
		// From siglang/parse_test.go's corpus (canonical renderings).
		`""`,
		`"he said \"hi\" ∨ left"`,
		`num(42)`,
		`num(-3.5e2)`,
		`?any`, `?string`, `?int`, `?bool`,
		`concat("https://api.example.com/v", ?int, "/items?count=", ?int)`,
		`rep{concat("&tag=", ?string)}`,
		`("a")`,
		`("GET" ∨ "POST" ∨ ?string)`,
		`obj{"user": ?string, "ids": array[?int...], ?key: num(1), "hole": ?any}`,
		`array["x", obj{"k": ?any}]`,
		`json(obj{"data": json(?any)})`,
		`xml(<rss version="2.0" lang=?any><channel><item>?string</item></channel>concat("tail:", ?int)</rss>)`,
		// Engine-stressing shapes.
		`rep{""}`,
		`rep{rep{?string}}`,
		`(num(1) ∨ num(2) ∨ ?bool)`,
		`concat("a", rep{("b" ∨ ?int)}, "c")`,
		`obj{}`,
		`array[]`,
		`array[obj{"a": ?int}, obj{"b": ?string}]`,
	}
	payloadSeeds := []string{
		"",
		"https://api.example.com/v2/items?count=17",
		"a=1&b=2&noequals",
		`{"user":"bob","ids":[1,2],"k":true,"extra":null}`,
		`[{"a":1},{"b":"x"}]`,
		`<rss version="2.0"><channel><item>hi</item></channel></rss>`,
		"line1\nline2",
		"abbbc", "a12c", "ac",
		`{"truncated":`,
		"tr\xffue",
	}
	for i, s := range sigSeeds {
		f.Add(s, payloadSeeds[i%len(payloadSeeds)])
	}
	for _, p := range payloadSeeds {
		f.Add(`concat("v", ?int)`, p)
	}
	// The JSON walk's edge cases (match_test.go).
	for _, tc := range jsonEdgeCases {
		f.Add(tc.sig, tc.payload)
	}

	f.Fuzz(func(t *testing.T, sigSrc, payload string) {
		// JSONSize computes marshalled lengths without marshalling; hold it
		// to the real encoder on every decodable payload.
		if v, err := DecodeJSONPayload([]byte(payload)); err == nil {
			if enc, merr := json.Marshal(v); merr == nil {
				if got := JSONSize(v); got != len(enc) {
					t.Fatalf("JSONSize(%q) = %d, encoder produced %d bytes: %s",
						payload, got, len(enc), enc)
				}
			}
		}

		sig, err := siglang.Parse(sigSrc)
		if err != nil {
			t.Skip()
		}
		// Compile from the pristine tree, before the interpretive matchers
		// get a chance to confluence-merge arrays in place; the compiled
		// programs must agree with the oracle both before and after that
		// first-match mutation (round 2).
		single := CompileSingle(sig)
		for round := 0; round < 2; round++ {
			wantOK, wantSt := MatchText(sig, payload)
			gotOK, gotSt := single.MatchText(payload)
			if wantOK != gotOK || wantSt != gotSt {
				t.Fatalf("round %d MatchText(%s, %q): interp (%v, %+v), vm (%v, %+v)",
					round, sigSrc, payload, wantOK, wantSt, gotOK, gotSt)
			}

			wantOK, wantSt = MatchQuery(sig, payload)
			gotOK, gotSt = single.MatchQuery(payload)
			if wantOK != gotOK || wantSt != gotSt {
				t.Fatalf("round %d MatchQuery(%s, %q): interp (%v, %+v), vm (%v, %+v)",
					round, sigSrc, payload, wantOK, wantSt, gotOK, gotSt)
			}

			wantOK, wantSt, wantErr := MatchJSON(sig, []byte(payload))
			gotOK, gotSt, gotErr := single.MatchJSON([]byte(payload))
			if wantOK != gotOK || wantSt != gotSt || (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("round %d MatchJSON(%s, %q): interp (%v, %+v, %v), vm (%v, %+v, %v)",
					round, sigSrc, payload, wantOK, wantSt, wantErr, gotOK, gotSt, gotErr)
			}

			if x, isXML := sig.(*siglang.XML); isXML {
				wantOK, wantSt, wantErr := MatchXML(x, []byte(payload))
				gotOK, gotSt, gotErr := single.MatchXML([]byte(payload))
				if wantOK != gotOK || wantSt != gotSt || (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("round %d MatchXML(%s, %q): interp (%v, %+v, %v), vm (%v, %+v, %v)",
						round, sigSrc, payload, wantOK, wantSt, wantErr, gotOK, gotSt, gotErr)
				}
			}
		}
	})
}
