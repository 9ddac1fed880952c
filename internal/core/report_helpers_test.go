package core

import (
	"reflect"
	"testing"

	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/pairing"
	"extractocol/internal/sigbuild"
	"extractocol/internal/siglang"
	"extractocol/internal/slice"
	"extractocol/internal/taint"
)

// tx is shorthand for a report transaction with just the fields the
// aggregation helpers read.
func tx(method, reqBodyKind string, resp *sigbuild.ResponseSig, paired bool) *Transaction {
	return &Transaction{
		Request:  &sigbuild.RequestSig{Method: method, BodyKind: reqBodyKind},
		Response: resp,
		Paired:   paired,
	}
}

func jsonResp() *sigbuild.ResponseSig {
	o := &siglang.Obj{}
	o.Put("id", siglang.AnyInt())
	return &sigbuild.ResponseSig{BodyKind: "json", JSON: o}
}

func TestCountByMethod(t *testing.T) {
	cases := []struct {
		name string
		txs  []*Transaction
		want map[string]int
	}{
		{name: "empty report", txs: nil, want: map[string]int{}},
		{name: "single", txs: []*Transaction{tx("GET", "", nil, false)},
			want: map[string]int{"GET": 1}},
		{name: "mixed methods",
			txs: []*Transaction{
				tx("GET", "", nil, false),
				tx("POST", "", nil, false),
				tx("GET", "", nil, false),
				tx("PUT", "", nil, false),
			},
			want: map[string]int{"GET": 2, "POST": 1, "PUT": 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Report{Transactions: tc.txs}
			if got := r.CountByMethod(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("CountByMethod() = %v, want %v", got, tc.want)
			}
		})
	}
}

// bodyKindCounts tallies transactions by body representation: request
// query strings, JSON bodies (either side), XML bodies (either side).
// TestCountHelpers counts an analyzed report's JSON transactions with it.
func bodyKindCounts(r *Report) (query, json, xml int) {
	for _, t := range r.Transactions {
		if t.Request.BodyKind == "query" {
			query++
		}
		if t.Request.BodyKind == "json" || (t.Response != nil && t.Response.BodyKind == "json" && t.Response.HasBody()) {
			json++
		}
		if t.Request.BodyKind == "xml" || (t.Response != nil && t.Response.BodyKind == "xml" && t.Response.HasBody()) {
			xml++
		}
	}
	return
}

func TestBodyKindCounts(t *testing.T) {
	cases := []struct {
		name                string
		txs                 []*Transaction
		wantQ, wantJ, wantX int
	}{
		{name: "empty report"},
		{name: "query request",
			txs: []*Transaction{tx("GET", "query", nil, false)}, wantQ: 1},
		{name: "json request nil response",
			txs: []*Transaction{tx("POST", "json", nil, false)}, wantJ: 1},
		{name: "json response only",
			txs: []*Transaction{tx("GET", "", jsonResp(), true)}, wantJ: 1},
		{name: "json request and json response count once",
			txs: []*Transaction{tx("POST", "json", jsonResp(), true)}, wantJ: 1},
		{name: "empty json response body not counted",
			// BodyKind says json but the tree is empty: HasBody is false.
			txs: []*Transaction{tx("GET", "", &sigbuild.ResponseSig{BodyKind: "json"}, false)}},
		{name: "xml response with body",
			txs: []*Transaction{tx("GET", "",
				&sigbuild.ResponseSig{BodyKind: "xml", XML: &siglang.Elem{Tag: "rss"}}, true)},
			wantX: 1},
		{name: "xml response without tree not counted",
			txs: []*Transaction{tx("GET", "", &sigbuild.ResponseSig{BodyKind: "xml"}, false)}},
		{name: "query and json coexist per transaction",
			txs:   []*Transaction{tx("GET", "query", jsonResp(), true)},
			wantQ: 1, wantJ: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Report{Transactions: tc.txs}
			q, j, x := bodyKindCounts(r)
			if q != tc.wantQ || j != tc.wantJ || x != tc.wantX {
				t.Errorf("bodyKindCounts() = (%d, %d, %d), want (%d, %d, %d)",
					q, j, x, tc.wantQ, tc.wantJ, tc.wantX)
			}
		})
	}
}

func TestPairCount(t *testing.T) {
	cases := []struct {
		name string
		txs  []*Transaction
		want int
	}{
		{name: "empty report", want: 0},
		{name: "none paired", txs: []*Transaction{tx("GET", "", nil, false)}, want: 0},
		{name: "some paired",
			txs: []*Transaction{
				tx("GET", "", jsonResp(), true),
				tx("POST", "", nil, false),
				tx("GET", "", jsonResp(), true),
			},
			want: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Report{Transactions: tc.txs}
			if got := r.PairCount(); got != tc.want {
				t.Errorf("PairCount() = %d, want %d", got, tc.want)
			}
		})
	}
}

// foldIdx/foldTab key the dense taint.Results the fold tests hand-build:
// a synthetic two-method program covering every statement ID used below.
var foldIdx, foldTab = func() (*ir.Index, *intern.SyncTable) {
	p := ir.NewProgram("fold")
	for _, cls := range []string{"a", "b"} {
		c := p.AddClass(&ir.Class{Name: cls})
		m := ir.NewMethod(c, "m", true, nil, "void")
		for i := 0; i < 4; i++ {
			m.ConstInt(int64(i))
		}
		m.ReturnVoid()
		m.Done()
	}
	return ir.NewIndex(p), &intern.SyncTable{}
}()

// sliceTx builds a minimal slice.Transaction for fold tests.
func sliceTx(dpMethod string, dpIndex int, entry string, stmts []taint.StmtID,
	sinks, sources []string) *slice.Transaction {

	req := taint.NewResult(foldIdx, foldTab)
	for _, s := range stmts {
		if !req.AddStmt(s.Method, s.Index) {
			panic("fold test: statement outside the synthetic program: " + s.Method)
		}
	}
	stx := &slice.Transaction{
		DP:      taint.StmtID{Method: dpMethod, Index: dpIndex},
		DPRef:   "modeled.execute",
		Entry:   ir.EntryPoint{Method: entry},
		Request: req,
		Sinks:   map[string]bool{},
		Sources: map[string]bool{},
	}
	for _, s := range sinks {
		stx.Sinks[s] = true
	}
	for _, s := range sources {
		stx.Sources[s] = true
	}
	return stx
}

// litReq is a request signature with a constant URI, so transactions fold
// across demarcation points when the rest of the signature matches.
func litReq(uri string) *sigbuild.RequestSig {
	return &sigbuild.RequestSig{Method: "GET", URI: siglang.Str(uri), BodyKind: "query",
		Body: siglang.Str("")}
}

func TestFoldTransactionsMergesDuplicates(t *testing.T) {
	// Three entry points reach the same constant signature (two of them via
	// the same DP, one via another), plus one distinct signature and one
	// failed build that must be skipped.
	s1 := taint.StmtID{Method: "a.m", Index: 1}
	s2 := taint.StmtID{Method: "b.m", Index: 2}
	txs := []*slice.Transaction{
		sliceTx("a.m", 1, "app.EntryB", []taint.StmtID{s1}, []string{"ui"}, []string{"resource"}),
		sliceTx("a.m", 1, "app.EntryA", []taint.StmtID{s1}, []string{"file"}, nil),
		sliceTx("c.m", 3, "app.EntryA", []taint.StmtID{s2}, nil, []string{"db"}),
		sliceTx("d.m", 4, "app.EntryC", nil, nil, nil),
		sliceTx("e.m", 5, "app.EntryD", nil, nil, nil),
	}
	results := []built{
		{req: litReq("https://x/1"), resp: jsonResp()},
		{req: litReq("https://x/1"), resp: &sigbuild.ResponseSig{}}, // same key, unpaired
		{req: litReq("https://x/1")},                                // same key via another DP
		{req: litReq("https://x/2")},
		{err: errScoped}, // must be dropped entirely
	}
	pairByTx := map[*slice.Transaction]pairing.Pair{
		txs[0]: {Tx: txs[0], OneToOne: true},
	}
	sliceStmts := &intern.Bits{}
	col := obs.NewCollector()

	out := foldTransactions(txs, results, pairByTx, sliceStmts, col, false)

	if len(out) != 2 {
		t.Fatalf("folded to %d transactions, want 2", len(out))
	}
	f := out[0]
	wantEntries := []string{"app.EntryA", "app.EntryB"}
	if !reflect.DeepEqual(f.Entries, wantEntries) {
		t.Errorf("Entries = %v, want %v (sorted, deduplicated)", f.Entries, wantEntries)
	}
	if !reflect.DeepEqual(f.Sinks, []string{"file", "ui"}) {
		t.Errorf("Sinks = %v, want merged sorted [file ui]", f.Sinks)
	}
	if !reflect.DeepEqual(f.Sources, []string{"db", "resource"}) {
		t.Errorf("Sources = %v, want merged sorted [db resource]", f.Sources)
	}
	if !f.Paired {
		t.Error("folding an unpaired duplicate must keep Paired true")
	}
	if !f.OneToOne {
		t.Error("pairing qualifiers of the first occurrence must survive the fold")
	}
	if out[1].ID != 2 || f.ID != 1 {
		t.Errorf("IDs = (%d, %d), want sequential (1, 2)", f.ID, out[1].ID)
	}
	hasStmt := func(s taint.StmtID) bool {
		mid, ok := foldIdx.MethodID(s.Method)
		return ok && sliceStmts.Has(foldIdx.StmtID(mid, s.Index))
	}
	if !hasStmt(s1) || !hasStmt(s2) {
		t.Errorf("sliceStmts = %v, want both kept slices' statements", sliceStmts)
	}
	prof := col.Snapshot()
	if prof.Counter(obs.CtrTransactions) != 2 {
		t.Errorf("%s = %d, want 2", obs.CtrTransactions, prof.Counter(obs.CtrTransactions))
	}
	if prof.Counter(obs.CtrDedupFolded) != 2 {
		t.Errorf("%s = %d, want 2 folds", obs.CtrDedupFolded, prof.Counter(obs.CtrDedupFolded))
	}
}

func TestFoldTransactionsEntriesStaySorted(t *testing.T) {
	// Regression: Entries used to be appended unsorted on every fold, so the
	// report order depended on slice discovery order.
	var txs []*slice.Transaction
	var results []built
	for _, entry := range []string{"z.E", "a.E", "m.E", "a.E"} {
		txs = append(txs, sliceTx("a.m", 1, entry, nil, nil, nil))
		results = append(results, built{req: litReq("https://x/1")})
	}
	out := foldTransactions(txs, results, map[*slice.Transaction]pairing.Pair{},
		&intern.Bits{}, nil, false)
	if len(out) != 1 {
		t.Fatalf("folded to %d transactions, want 1", len(out))
	}
	want := []string{"a.E", "m.E", "z.E"}
	if !reflect.DeepEqual(out[0].Entries, want) {
		t.Errorf("Entries = %v, want %v", out[0].Entries, want)
	}
}

func TestFoldTransactionsEmpty(t *testing.T) {
	out := foldTransactions(nil, nil, nil, &intern.Bits{}, nil, false)
	if len(out) != 0 {
		t.Fatalf("foldTransactions(nil) = %v, want empty", out)
	}
}

func TestFoldTransactionsNilResponse(t *testing.T) {
	txs := []*slice.Transaction{sliceTx("a.m", 1, "app.E", nil, nil, nil)}
	results := []built{{req: litReq("https://x/1")}} // resp nil
	out := foldTransactions(txs, results, nil, &intern.Bits{}, nil, false)
	if len(out) != 1 {
		t.Fatalf("got %d transactions, want 1", len(out))
	}
	if out[0].Paired {
		t.Error("a nil response must not count as paired")
	}
	if out[0].Response != nil {
		t.Error("nil response must stay nil in the report")
	}
}
