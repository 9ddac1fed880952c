// MatchReport edge cases: an empty trace, signatures that never see
// traffic, the byte accounting of unmatched entries, and matching as a
// read-only use of the report. These pin the denominators of the §5.1
// validity summary — a signature without observed traffic must be excluded
// from SigsWithTraffic rather than counted valid, and unmatched exchanges
// must not leak bytes into the Table 2 statistics.
package trace

import (
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/sigbuild"
	"extractocol/internal/siglang"
)

func litTx(id int, method, uri string) *core.Transaction {
	return &core.Transaction{ID: id, Request: &sigbuild.RequestSig{
		Method: method, URI: &siglang.Lit{Val: uri}}}
}

func TestMatchReportEmptyTrace(t *testing.T) {
	rep := &core.Report{Transactions: []*core.Transaction{
		litTx(1, "GET", "https://a.example.com/x"),
	}}
	res := MatchReport(rep, nil)
	if res.TraceEntries != 0 || res.MatchedEntries != 0 {
		t.Fatalf("entry counts = %+v", res)
	}
	if res.SigsWithTraffic != 0 || res.SigsValid != 0 {
		t.Fatalf("a signature without traffic was counted: %+v", res)
	}
	if len(res.Unmatched) != 0 {
		t.Fatalf("unmatched = %v, want none", res.Unmatched)
	}
	if res.URIStats.Total()+res.ReqStats.Total()+res.RespStats.Total() != 0 {
		t.Fatalf("empty trace accounted bytes: %+v", res)
	}
}

func TestMatchReportSignatureWithoutTraffic(t *testing.T) {
	// Two signatures, traffic for one: only the exercised signature enters
	// the validity denominator, and it is valid.
	rep := &core.Report{Transactions: []*core.Transaction{
		litTx(1, "GET", "https://a.example.com/seen"),
		litTx(2, "POST", "https://a.example.com/never"),
	}}
	es := []Entry{
		{Method: "GET", URL: "https://a.example.com/seen", Status: 200, RouteID: "GET /seen"},
		{Method: "GET", URL: "https://a.example.com/seen", Status: 404, RouteID: "GET /seen"}, // errors are skipped
	}
	res := MatchReport(rep, es)
	if res.TraceEntries != 1 || res.MatchedEntries != 1 {
		t.Fatalf("entry counts = %+v", res)
	}
	if res.SigsWithTraffic != 1 {
		t.Fatalf("SigsWithTraffic = %d, want 1 (the POST sig saw no traffic)", res.SigsWithTraffic)
	}
	if res.SigsValid != 1 {
		t.Fatalf("SigsValid = %d, want 1", res.SigsValid)
	}
	// The matched literal URI is all key bytes.
	if res.URIStats.Key == 0 || res.URIStats.None != 0 {
		t.Fatalf("uri stats = %+v", res.URIStats)
	}
}

func TestMatchReportUnmatchedEntryByteAccounting(t *testing.T) {
	rep := &core.Report{Transactions: []*core.Transaction{
		litTx(1, "GET", "https://a.example.com/known"),
	}}
	es := []Entry{
		// Unmatched by URL, carrying request and response payloads that must
		// NOT be accounted anywhere.
		{Method: "GET", URL: "https://other.example.com/mystery", Status: 200,
			ReqBody: "k=v&x=y", RespType: "json", RespBody: `{"a":1}`,
			RouteID: "GET /mystery"},
		// Unmatched by method.
		{Method: "DELETE", URL: "https://a.example.com/known", Status: 200,
			RouteID: "DELETE /known"},
	}
	res := MatchReport(rep, es)
	if res.TraceEntries != 2 || res.MatchedEntries != 0 {
		t.Fatalf("entry counts = %+v", res)
	}
	if len(res.Unmatched) != 2 ||
		res.Unmatched[0] != "GET /mystery" || res.Unmatched[1] != "DELETE /known" {
		t.Fatalf("unmatched = %v", res.Unmatched)
	}
	if res.SigsWithTraffic != 0 || res.SigsValid != 0 {
		t.Fatalf("unmatched traffic reached a signature: %+v", res)
	}
	if got := res.URIStats.Total() + res.ReqStats.Total() + res.RespStats.Total(); got != 0 {
		t.Fatalf("unmatched entries accounted %d bytes, want 0", got)
	}
}

// TestMatchingLeavesReportUnchanged: matching reads the signatures and
// never rewrites them. An array signature whose elements differ is the
// shape an in-place merge of the element signatures would rewrite, here
// as a request body and nested in a response body. The trees are compared
// in canonical form: report.JSON and report.Text render an array by its
// merged element only, so they cannot show such a rewrite.
func TestMatchingLeavesReportUnchanged(t *testing.T) {
	arr := func() siglang.Sig {
		s, err := siglang.Parse(`array[obj{"a": ?int}, obj{"b": ?string}]`)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	newReport := func() *core.Report {
		tx := litTx(1, "POST", "https://a.example.com/items")
		tx.Request.BodyKind = "json"
		tx.Request.Body = &siglang.JSON{Root: arr()}
		resp := &siglang.Obj{}
		resp.Put("items", arr())
		tx.Response = &sigbuild.ResponseSig{BodyKind: "json", JSON: resp}
		return &core.Report{Transactions: []*core.Transaction{tx}}
	}
	canon := func(rep *core.Report) string {
		tx := rep.Transactions[0]
		return siglang.Canon(tx.Request.Body) + " / " + siglang.Canon(tx.Response.JSON)
	}
	es := []Entry{{
		Method: "POST", URL: "https://a.example.com/items", Status: 200,
		ReqBody: `[{"a":1,"b":"x"}]`, RespType: "json",
		RespBody: `{"items":[{"a":2,"b":"y"}]}`, RouteID: "POST /items",
	}}
	for _, tc := range []struct {
		name  string
		match func(*core.Report) *MatchResult
	}{
		{"MatchReport", func(rep *core.Report) *MatchResult { return MatchReport(rep, es) }},
		{"Classify", func(rep *core.Report) *MatchResult {
			return &Classify(rep, es, ClassifyOptions{}).MatchResult
		}},
	} {
		rep := newReport()
		before := canon(rep)
		if res := tc.match(rep); res.MatchedEntries != 1 || res.SigsValid != 1 {
			t.Fatalf("%s: the entry should match its signature validly: %+v", tc.name, res)
		}
		if after := canon(rep); after != before {
			t.Errorf("%s rewrote the report's signatures:\nbefore %s\nafter  %s", tc.name, before, after)
		}
	}
}
