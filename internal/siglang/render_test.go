package siglang

import (
	"encoding/json"
	"strconv"
	"testing"
	"unicode/utf8"
)

// checkJSONQuote holds appendJSONQuote to its three rules on s: the output
// is valid JSON, it decodes back to s when s is valid UTF-8, and it is
// strconv.Quote's output wherever that is valid JSON. Quoting from a
// []byte gives the same bytes as from a string.
func checkJSONQuote(t *testing.T, s string) {
	t.Helper()
	got := appendJSONQuote(nil, s)
	if !json.Valid(got) {
		t.Fatalf("appendJSONQuote(%q) = %s is not valid JSON", s, got)
	}
	if utf8.ValidString(s) {
		var back string
		if err := json.Unmarshal(got, &back); err != nil || back != s {
			t.Fatalf("appendJSONQuote(%q) = %s decodes to %q (%v)", s, got, back, err)
		}
	}
	if q := strconv.Quote(s); json.Valid([]byte(q)) && string(got) != q {
		t.Fatalf("appendJSONQuote(%q) = %s, strconv.Quote gives valid JSON %s", s, got, q)
	}
	if fromBytes := appendJSONQuote([]byte("x"), []byte(s)); string(fromBytes) != "x"+string(got) {
		t.Fatalf("appendJSONQuote from bytes = %s, from a string %s", fromBytes[1:], got)
	}
}

// jsonQuoteCases are strings on which Go's and JSON's quoting differ or
// meet: the control bytes with and without a name in each, DEL, invalid
// UTF-8 (a lone continuation byte, a truncated sequence, an encoded
// surrogate), non-printing runes inside and beyond the Basic Multilingual
// Plane, and printable text that both quote alike.
var jsonQuoteCases = []string{
	"",
	`plain "quoted" back\slash`,
	"\a\b\f\n\r\t\v",
	"\x00\x01\x1f\x7f",
	"bad\xff\xfe",
	"\xe2\x80",
	"\xed\xa0\x80",
	"\u2028\u2029\u00ad\ufeff",
	"\U000e0001\U000f0000",
	"\ufffd, é, \U0001F600, 日本",
	"<html>&amp;</html>",
}

func TestJSONQuote(t *testing.T) {
	for _, s := range jsonQuoteCases {
		checkJSONQuote(t, s)
	}
	for _, c := range []struct{ in, want string }{
		{"a\x00\a\v\x7f", `"a\u0000\u0007\u000b\u007f"`},
		{"\xff", `"\ufffd"`},
		{"\U000f0000", `"\udb80\udc00"`},
		{"\u00ad\n", `"\u00ad\n"`},
	} {
		if got := string(appendJSONQuote(nil, c.in)); got != c.want {
			t.Errorf("appendJSONQuote(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

// FuzzJSONQuote holds appendJSONQuote to its rules on arbitrary bytes.
func FuzzJSONQuote(f *testing.F) {
	for _, s := range jsonQuoteCases {
		f.Add(s)
	}
	f.Fuzz(checkJSONQuote)
}

// TestIsJSONNumber holds the schema renderer's byte-level number check to
// JSON's grammar as the schema oracle writes it (jsonNumber), on numbers
// and on texts the parser accepts between "num(" and ")" that are none:
// a literal it accepts must be a JSON value on its own. It must not
// allocate, since it runs per numeric literal on the report path.
func TestIsJSONNumber(t *testing.T) {
	for _, c := range []struct {
		in   string
		want bool
	}{
		{"0", true}, {"-0", true}, {"42", true}, {"-3.5e2", true}, {"1E+9", true}, {"0.0e-0", true},
		{"", false}, {"-", false}, {"01", false}, {"+1", false}, {".5", false}, {"1.", false},
		{"1e", false}, {"1e+", false}, {" 1", false}, {"1 ", false}, {"NaN", false},
		{"0x10", false}, {"1_000", false}, {"--1", false}, {"1.2.3", false},
	} {
		got := isJSONNumber(c.in)
		if got != c.want || got != jsonNumber.MatchString(c.in) {
			t.Errorf("isJSONNumber(%q) = %v, want %v", c.in, got, c.want)
		}
		if got && !json.Valid([]byte(c.in)) {
			t.Errorf("isJSONNumber(%q) accepts what encoding/json rejects", c.in)
		}
	}
	s := "-3.5e2"
	if n := testing.AllocsPerRun(100, func() { isJSONNumber(s) }); n != 0 {
		t.Errorf("isJSONNumber allocates %v times per call", n)
	}
}
