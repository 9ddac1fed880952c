package report

import (
	"encoding/json"
	"strings"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/sigbuild"
	"extractocol/internal/siglang"
)

func rrReport(t *testing.T) *core.Report {
	t.Helper()
	app := corpus.RadioReddit()
	rep, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTextContainsTransactionsAndDeps(t *testing.T) {
	text := Text(rrReport(t))
	for _, want := range []string{
		"radio reddit",
		"ssl\\.reddit\\.com/api/login",
		"api/vote",
		"response field modhash",
		"header Cookie",
		"response goes to: media",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q", want)
		}
	}
}

func TestJSONIsValidAndComplete(t *testing.T) {
	rep := rrReport(t)
	data, err := JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	txs, ok := v["transactions"].([]any)
	if !ok || len(txs) != len(rep.Transactions) {
		t.Fatalf("transactions = %v", v["transactions"])
	}
	if _, hasDeps := v["dependencies"]; !hasDeps {
		t.Fatal("dependencies missing")
	}
}

func TestDOTWellFormed(t *testing.T) {
	dot := DOT(rrReport(t))
	if !strings.HasPrefix(dot, "digraph transactions {") || !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Fatalf("malformed DOT:\n%s", dot)
	}
	if !strings.Contains(dot, "->") {
		t.Fatal("DOT has no edges")
	}
	if !strings.Contains(dot, "media") {
		t.Fatal("DOT missing media sink edge")
	}
}

func TestGroupByPrefixKayak(t *testing.T) {
	app := corpus.Kayak()
	opts := core.NewOptions()
	opts.ScopePrefix = "com.kayak."
	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupByPrefix(rep)
	byPrefix := map[string]int{}
	for _, g := range groups {
		byPrefix[g.Method+" "+g.Prefix] += g.Count
	}
	if byPrefix["GET /trips/v2"] != 11 {
		t.Errorf("trips/v2 = %d, want 11", byPrefix["GET /trips/v2"])
	}
	if byPrefix["POST /k/authajax"] != 2 {
		t.Errorf("authajax = %d, want 2", byPrefix["POST /k/authajax"])
	}
	if byPrefix["GET /h/mobileapis"] != 12 {
		t.Errorf("mobileapis = %d, want 12", byPrefix["GET /h/mobileapis"])
	}
}

// TestRenderingLeavesSignaturesUnchanged checks that rendering a report
// does not rewrite its signature trees. An array whose elements are
// differently shaped objects is what JSONSchema folds into one item
// schema; the fold must not merge the later elements into the first.
func TestRenderingLeavesSignaturesUnchanged(t *testing.T) {
	arr := func() siglang.Sig {
		s, err := siglang.Parse(`array[obj{"a": ?int}, obj{"b": ?string}]`)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	resp := &siglang.Obj{}
	resp.Put("items", arr())
	tx := &core.Transaction{
		ID: 1,
		Request: &sigbuild.RequestSig{
			Method:   "POST",
			URI:      siglang.Str("https://a.example.com/items"),
			BodyKind: "json",
			Body:     &siglang.JSON{Root: arr()},
		},
		Response: &sigbuild.ResponseSig{BodyKind: "json", JSON: resp},
	}
	rep := &core.Report{Package: "t.render", Transactions: []*core.Transaction{tx}}
	canon := func() string {
		return siglang.Canon(tx.Request.Body) + " / " + siglang.Canon(tx.Response.JSON)
	}
	before := canon()
	for _, r := range []struct {
		name   string
		render func() error
	}{
		{"Text", func() error { Text(rep); return nil }},
		{"JSON", func() error { _, err := JSON(rep); return err }},
	} {
		if err := r.render(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if after := canon(); after != before {
			t.Fatalf("%s rewrote the report's signatures:\nbefore %s\nafter  %s", r.name, before, after)
		}
	}
}
