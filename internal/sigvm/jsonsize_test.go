package sigvm

import (
	"encoding/json"
	"math"
	"testing"
)

// TestJSONSizeMatchesEncoder pins the no-marshal size computation against
// encoding/json over the encoder's edge cases: every short and \u00XX
// string escape, HTML escaping, invalid UTF-8, the U+2028/U+2029 line
// separators, both float format regimes with the exponent trim, and
// container shapes (including nil maps and slices, which encode as null).
func TestJSONSizeMatchesEncoder(t *testing.T) {
	values := []any{
		nil, true, false,
		"", "plain", "with \"quotes\" and \\backslash",
		"ctl:\b\f\n\r\t\x00\x01\x1f", "html: <a href=\"x\">&amp;</a>",
		"bad utf8: \xff\xfe", "repl: �", "seps: \u2028\u2029",
		"unicode: héllo wörld 日本語", "\x7f del",
		0.0, 1.0, -1.5, 3.14159, 1e20, 1e21, 1e-6, 1e-7, 2.5e-9,
		-1e21, -1e-7, 123456789.123456,
		map[string]any{}, map[string]any(nil), []any{}, []any(nil),
		map[string]any{"k": "v", "n": 1.0, "a": []any{true, nil, "x"}},
		[]any{map[string]any{"deep": []any{1e-8, "\u2028"}}},
	}
	for _, v := range values {
		enc, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %#v: %v", v, err)
		}
		if got := JSONSize(v); got != len(enc) {
			t.Errorf("JSONSize(%#v) = %d, encoder produced %d bytes: %s",
				v, got, len(enc), enc)
		}
	}
}

// TestJSONSizeNonFinite pins the historical behavior: values the encoder
// rejects size to zero.
func TestJSONSizeNonFinite(t *testing.T) {
	for _, v := range []any{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := JSONSize(v); got != 0 {
			t.Errorf("JSONSize(%v) = %d, want 0", v, got)
		}
	}
}
