package pairing

// The pre-index implementation of Analyze lives here as analyzeOracle. The
// indexed rewrite in pairing.go must produce deep-equal output for any
// input; the equivalence tests below check that over hand-built edge cases,
// randomized transaction sets, real corpus slices and generated apps.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"extractocol/internal/callgraph"
	"extractocol/internal/corpus"
	"extractocol/internal/intern"
	"extractocol/internal/semmodel"
	"extractocol/internal/slice"
	"extractocol/internal/taint"
)

// analyzeOracle is the reference pairwise-scan implementation of Analyze,
// kept verbatim from before the inverted-index rewrite. It is quadratic in
// the per-DP group size but trivially auditable; the equivalence tests below
// hold Analyze to deep-equal output on every input.
func analyzeOracle(txs []*slice.Transaction) []Pair {
	byDP := map[taint.StmtID][]*slice.Transaction{}
	for _, tx := range txs {
		byDP[tx.DP] = append(byDP[tx.DP], tx)
	}
	out := make([]Pair, 0, len(txs))
	for _, tx := range txs {
		group := byDP[tx.DP]
		p := Pair{
			Tx:               tx,
			HasResponse:      tx.Response != nil && tx.Response.Size() > 0,
			DisjointRequest:  oracleDisjoint(tx.Request, oracleRequestsOf(group, tx)),
			DisjointResponse: oracleDisjoint(tx.Response, oracleResponsesOf(group, tx)),
		}
		p.OneToOne = p.HasResponse && (len(group) == 1 || !p.DisjointResponse.Empty())
		if p.HasResponse && len(group) > 1 && p.DisjointResponse.Empty() {
			p.SharedHandler = oracleSameStmtsAsAnother(tx, group)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tx.ID < out[j].Tx.ID })
	return out
}

func oracleRequestsOf(group []*slice.Transaction, skip *slice.Transaction) []*taint.Result {
	var rs []*taint.Result
	for _, t := range group {
		if t != skip && t.Request != nil {
			rs = append(rs, t.Request)
		}
	}
	return rs
}

func oracleResponsesOf(group []*slice.Transaction, skip *slice.Transaction) []*taint.Result {
	var rs []*taint.Result
	for _, t := range group {
		if t != skip && t.Response != nil {
			rs = append(rs, t.Response)
		}
	}
	return rs
}

func oracleDisjoint(r *taint.Result, others []*taint.Result) *intern.Bits {
	out := &intern.Bits{}
	if r == nil {
		return out
	}
	r.Stmts().Each(func(s uint32) bool {
		shared := false
		for _, o := range others {
			if o.Stmts().Has(s) {
				shared = true
				break
			}
		}
		if !shared {
			out.Add(s)
		}
		return true
	})
	return out
}

func oracleSameStmtsAsAnother(tx *slice.Transaction, group []*slice.Transaction) bool {
	for _, o := range group {
		if o == tx || o.Response == nil || tx.Response == nil {
			continue
		}
		if tx.Response.Stmts().Equal(o.Response.Stmts()) {
			return true
		}
	}
	return false
}

// requireEquivalent fails unless the indexed Analyze and the oracle agree on
// every Pair field, including nil-vs-empty map distinctions.
func requireEquivalent(t *testing.T, label string, txs []*slice.Transaction) {
	t.Helper()
	got := Analyze(txs)
	want := analyzeOracle(txs)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: pair %d (tx %d) diverges\n got: %+v\nwant: %+v",
				label, i, want[i].Tx.ID, got[i], want[i])
		}
	}
}

// TestAnalyzeMatchesOracleEdgeCases covers the group shapes that exercise
// every branch of the index build: singleton groups, nil requests and
// responses, empty (Size 0) responses, fully shared sets, partially shared
// sets, and exact-duplicate response handlers.
func TestAnalyzeMatchesOracleEdgeCases(t *testing.T) {
	dp1 := s("a.Common.exec", 9)
	dp2 := s("a.Other.exec", 4)
	shared := s("a.Common.exec", 3)
	handler := func() *taint.Result { return res(dp1, s("a.Handler.on", 2)) }

	cases := map[string][]*slice.Transaction{
		"empty": nil,
		"singleton": {
			{ID: 1, DP: dp1, Request: res(s("a.A.run", 1), dp1), Response: res(dp1, s("a.A.run", 8))},
		},
		"nil request": {
			{ID: 1, DP: dp1, Response: res(dp1)},
			{ID: 2, DP: dp1, Request: res(dp1), Response: res(dp1, s("a.B.run", 2))},
		},
		"nil response": {
			{ID: 1, DP: dp1, Request: res(s("a.A.run", 1), dp1)},
			{ID: 2, DP: dp1, Request: res(s("a.B.run", 1), dp1), Response: res(dp1)},
		},
		"empty response set": {
			{ID: 1, DP: dp1, Request: res(dp1), Response: res()},
			{ID: 2, DP: dp1, Request: res(dp1), Response: res()},
		},
		"disjoint segments": {
			{ID: 1, DP: dp1, Request: res(s("a.A.run", 1), shared, dp1), Response: res(dp1, s("a.A.run", 8))},
			{ID: 2, DP: dp1, Request: res(s("a.B.run", 1), shared, dp1), Response: res(dp1, s("a.B.run", 8))},
		},
		"shared handler": {
			{ID: 1, DP: dp1, Request: res(s("a.A.run", 1), dp1), Response: handler()},
			{ID: 2, DP: dp1, Request: res(s("a.B.run", 1), dp1), Response: handler()},
		},
		"fully shared no duplicate": {
			{ID: 1, DP: dp1, Request: res(dp1), Response: res(dp1, shared)},
			{ID: 2, DP: dp1, Request: res(dp1), Response: res(dp1, shared, s("a.B.run", 8))},
			{ID: 3, DP: dp1, Request: res(dp1), Response: res(dp1, shared, s("a.B.run", 8), s("a.C.run", 8))},
		},
		"two groups": {
			{ID: 1, DP: dp1, Request: res(s("a.A.run", 1), dp1), Response: res(dp1, s("a.A.run", 8))},
			{ID: 2, DP: dp1, Request: res(s("a.B.run", 1), dp1), Response: res(dp1, s("a.B.run", 8))},
			{ID: 3, DP: dp2, Request: res(s("a.C.run", 1), dp2), Response: res(dp2, s("a.C.run", 8))},
		},
	}
	for label, txs := range cases {
		requireEquivalent(t, label, txs)
	}
}

// TestAnalyzeMatchesOracleRandomized throws deterministic pseudo-random
// transaction sets at both implementations: small statement alphabets force
// heavy sharing, duplicate response sets, and hash-bucket collisions.
func TestAnalyzeMatchesOracleRandomized(t *testing.T) {
	// Tiny xorshift so the test is hermetic and reproducible.
	seed := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
	stmt := func() taint.StmtID {
		return s(fmt.Sprintf("a.M%d.run", next(4)), next(6))
	}
	randRes := func() *taint.Result {
		switch next(5) {
		case 0:
			return nil
		case 1:
			return res()
		default:
			r := res()
			for i, n := 0, 1+next(5); i < n; i++ {
				st := stmt()
				r.AddStmt(st.Method, st.Index)
			}
			return r
		}
	}
	dps := []taint.StmtID{s("a.DP.one", 1), s("a.DP.two", 2), s("a.DP.three", 3)}
	for trial := 0; trial < 200; trial++ {
		var txs []*slice.Transaction
		for i, n := 0, next(9); i < n; i++ {
			txs = append(txs, &slice.Transaction{
				ID:       i + 1,
				DP:       dps[next(len(dps))],
				Request:  randRes(),
				Response: randRes(),
			})
		}
		requireEquivalent(t, fmt.Sprintf("trial %d", trial), txs)
	}
}

// TestAnalyzeMatchesOracleOnCorpus runs both implementations over real
// slicer output for every corpus app and for seeded generated apps, which
// cover all seven protocol scenarios — the inputs the rewrite actually has
// to preserve byte-for-byte through the report pipeline.
//
// These apps reach each demarcation point from a single entry point, so
// their DP groups are singletons that never reach the group index. Each
// app's transactions therefore also run collapsed onto one DP: the same
// real slices as one maximal group, the code-reuse shape of Fig. 5.
func TestAnalyzeMatchesOracleOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	model := semmodel.Default()
	apps := append(corpus.Apps(), corpus.Rand(1729, 100)...)
	for _, app := range apps {
		cg := callgraph.Build(app.Prog, model)
		txs := slice.Find(app.Prog, model, cg, slice.Options{MaxAsyncHops: 1})
		requireEquivalent(t, app.Spec.Name, txs)
		if len(txs) < 2 {
			continue
		}
		grouped := make([]*slice.Transaction, len(txs))
		for i, tx := range txs {
			cp := *tx
			cp.DP = txs[0].DP
			grouped[i] = &cp
		}
		requireEquivalent(t, app.Spec.Name+" as one DP group", grouped)
	}
}

// benchTxs builds the running example's transaction set once for the
// old-vs-new comparison benchmarks (EXPERIMENTS.md quotes their ratio).
func benchTxs(b *testing.B) []*slice.Transaction {
	b.Helper()
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		b.Fatal(err)
	}
	model := semmodel.Default()
	cg := callgraph.Build(app.Prog, model)
	txs := slice.Find(app.Prog, model, cg, slice.Options{MaxAsyncHops: 1})
	if len(txs) == 0 {
		b.Fatal("no transactions")
	}
	return txs
}

func BenchmarkAnalyzeIndexed(b *testing.B) {
	txs := benchTxs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(txs)
	}
}

func BenchmarkAnalyzeOracle(b *testing.B) {
	txs := benchTxs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeOracle(txs)
	}
}
