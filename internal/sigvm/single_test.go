package sigvm

import (
	"extractocol/internal/intern"
	"extractocol/internal/siglang"
)

// Single is one signature compiled in every matching mode — the harness
// the fuzz and property tests drive to compare the VM against the
// interpretive oracle (oracle_test.go) primitive by primitive, outside any
// report. Methods are not safe for concurrent use (they share one
// Matcher's scratch); report-scale matching goes through Compile.
type Single struct {
	b     *Bundle
	m     *Matcher
	text  *TextProg
	query *QueryProg
	json  *JSONProg
	xml   *XMLProg
}

// CompileSingle compiles s for text, query, JSON and (when s is an XML
// signature) XML matching. Compilation never mutates s.
func CompileSingle(s siglang.Sig) *Single {
	b := &Bundle{syms: intern.NewTable(16)}
	sg := &Single{
		b:     b,
		text:  b.note(compileText(s)),
		query: b.compileQuery(s),
		json:  b.compileJSON(s),
	}
	if x, isXML := s.(*siglang.XML); isXML {
		sg.xml = b.compileXML(x.Root)
	}
	sg.m = b.NewMatcher()
	return sg
}

// MatchText is the compiled form of the oracle's MatchText(s, payload).
func (s *Single) MatchText(payload string) (bool, siglang.ByteStats) {
	return s.m.matchTextStats(s.text, payload)
}

// MatchQuery is the compiled form of the oracle's MatchQuery(s, query).
func (s *Single) MatchQuery(query string) (bool, siglang.ByteStats) {
	return s.b.matchQuery(s.query, query)
}

// MatchJSON is the compiled form of the oracle's MatchJSON(s, payload).
func (s *Single) MatchJSON(payload []byte) (bool, siglang.ByteStats, error) {
	return s.m.matchJSON(s.json, string(payload))
}

// MatchXML is the compiled form of the oracle's MatchXML(s, payload); it
// requires the signature to have been an *siglang.XML.
func (s *Single) MatchXML(payload []byte) (bool, siglang.ByteStats, error) {
	return s.b.matchXML(s.xml, payload)
}

// HasXML reports whether the compiled signature was an XML signature.
func (s *Single) HasXML() bool { return s.xml != nil }
