// Package pairing reconstructs complete HTTP transactions by pairing each
// request with its corresponding response (§3.3). Transactions are already
// separated per context by the slicer; this package performs the paper's
// disjoint-sub-slice analysis to validate the pairing when multiple
// requests share a demarcation point through code reuse (Fig. 5), and
// detects shared response handlers where pairing is legitimately
// many-to-one.
package pairing

import (
	"fmt"
	"sort"

	"extractocol/internal/budget"
	"extractocol/internal/callgraph"
	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
	"extractocol/internal/slice"
	"extractocol/internal/taint"
)

// Pair describes the pairing quality of one transaction.
type Pair struct {
	Tx *slice.Transaction
	// HasResponse reports whether a response slice exists at all.
	HasResponse bool
	// OneToOne is true when the transaction's response slice contains
	// statements disjoint from every other transaction sharing its
	// demarcation point — the Fig. 5 condition for unambiguous pairing.
	OneToOne bool
	// SharedHandler is true when another transaction processes its
	// response with the exact same statement set (a common response
	// handler, where pairing may not be one-to-one).
	SharedHandler bool
	// DisjointRequest and DisjointResponse are the statements unique to
	// this transaction among all same-DP transactions, as dense statement
	// sets over the transaction slices' program index.
	DisjointRequest  *intern.Bits
	DisjointResponse *intern.Bits
	// FlowConfirmed is set by VerifyFlow when information-flow analysis
	// from the disjoint request segment reaches the response slice — the
	// paper's Fig. 5 pairing check.
	FlowConfirmed bool
	// FlowSeeds is how many disjoint request statements seeded that check,
	// and FlowWitness is the smallest (method, index) response-slice
	// statement the flow reached — the concrete witness behind
	// FlowConfirmed, surfaced by the explain layer. Zero when unconfirmed.
	FlowSeeds   int
	FlowWitness taint.StmtID
}

// Analyze computes pairing facts for every transaction.
//
// Group analysis is indexed, not pairwise: for each demarcation-point group
// it builds two inverted owner-count indexes (statement → number of group
// transactions whose request/response slice contains it) and an
// equality-class partition of the response statement sets, all in one pass
// over the group's statements. Disjoint segments then fall out of a single
// scan of each transaction's own slice (a statement is disjoint exactly
// when its owner count is 1), and shared-handler detection is a lookup in
// the precomputed partition — O(total statements) per group where the
// previous implementation re-ran pairwise set scans per transaction,
// O(n²·|stmts|) in group size. Results are identical (oracle_test.go
// keeps the old implementation as an equivalence oracle).
func Analyze(txs []*slice.Transaction) []Pair {
	byDP := map[taint.StmtID][]*slice.Transaction{}
	for _, tx := range txs {
		byDP[tx.DP] = append(byDP[tx.DP], tx)
	}
	indexes := make(map[taint.StmtID]*groupIndex, len(byDP))
	out := make([]Pair, 0, len(txs))
	for _, tx := range txs {
		group := byDP[tx.DP]
		if len(group) == 1 {
			// Singleton groups (the common case) need no index: every
			// statement is trivially disjoint and no handler can be shared.
			p := Pair{
				Tx:               tx,
				HasResponse:      tx.Response != nil && tx.Response.Size() > 0,
				DisjointRequest:  copyStmts(tx.Request),
				DisjointResponse: copyStmts(tx.Response),
			}
			p.OneToOne = p.HasResponse
			out = append(out, p)
			continue
		}
		gi := indexes[tx.DP]
		if gi == nil {
			gi = indexGroup(group)
			indexes[tx.DP] = gi
		}
		p := Pair{
			Tx:               tx,
			HasResponse:      tx.Response != nil && tx.Response.Size() > 0,
			DisjointRequest:  ownedStmts(tx.Request, gi.reqOwners),
			DisjointResponse: ownedStmts(tx.Response, gi.respOwners),
		}
		p.OneToOne = p.HasResponse && !p.DisjointResponse.Empty()
		if p.HasResponse && p.DisjointResponse.Empty() {
			p.SharedHandler = gi.sharedHandler[tx]
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tx.ID < out[j].Tx.ID })
	return out
}

// groupIndex carries the per-group inverted indexes: how many transactions'
// request/response slices own each statement, and which transactions share
// their exact response statement set with another group member.
type groupIndex struct {
	reqOwners     map[uint32]int
	respOwners    map[uint32]int
	sharedHandler map[*slice.Transaction]bool
}

// indexGroup builds the indexes for one multi-transaction demarcation-point
// group: one counting pass over the group's slice statements, then a
// partition of the duplicate-candidate response sets.
func indexGroup(group []*slice.Transaction) *groupIndex {
	nreq, nresp := 0, 0
	for _, t := range group {
		if t.Request != nil {
			nreq += t.Request.Size()
		}
		if t.Response != nil {
			nresp += t.Response.Size()
		}
	}
	gi := &groupIndex{
		reqOwners:  make(map[uint32]int, nreq),
		respOwners: make(map[uint32]int, nresp),
	}
	hashes := make([]uint64, len(group))
	for i, t := range group {
		if t.Request != nil {
			t.Request.Stmts().Each(func(s uint32) bool {
				gi.reqOwners[s]++
				return true
			})
		}
		if t.Response == nil {
			continue
		}
		var h uint64
		t.Response.Stmts().Each(func(s uint32) bool {
			gi.respOwners[s]++
			h ^= stmtHash(s)
			return true
		})
		hashes[i] = h
	}

	// Shared-handler detection partitions response sets into equality
	// classes, but only duplicate candidates — non-empty sets with no
	// uniquely owned statement — can be flagged, and a set equal to a
	// candidate shares all its owner counts and is therefore a candidate
	// itself, so non-candidates need never be compared. Candidates are
	// bucketed by an order-independent shape key (size + folded statement
	// hash); exact set equality is only verified inside a bucket.
	type shape struct {
		n int
		h uint64
	}
	var classes map[shape][][]*slice.Transaction
	for i, t := range group {
		if t.Response == nil || t.Response.Size() == 0 {
			continue
		}
		candidate := true
		t.Response.Stmts().Each(func(s uint32) bool {
			if gi.respOwners[s] == 1 {
				candidate = false
				return false
			}
			return true
		})
		if !candidate {
			continue
		}
		if classes == nil {
			classes = map[shape][][]*slice.Transaction{}
		}
		key := shape{n: t.Response.Size(), h: hashes[i]}
		placed := false
		for j, class := range classes[key] {
			if t.Response.Stmts().Equal(class[0].Response.Stmts()) {
				classes[key][j] = append(class, t)
				placed = true
				break
			}
		}
		if !placed {
			classes[key] = append(classes[key], []*slice.Transaction{t})
		}
	}
	for _, buckets := range classes {
		for _, class := range buckets {
			if len(class) < 2 {
				continue
			}
			if gi.sharedHandler == nil {
				gi.sharedHandler = make(map[*slice.Transaction]bool, len(class))
			}
			for _, t := range class {
				gi.sharedHandler[t] = true
			}
		}
	}
	return gi
}

// copyStmts clones a slice's statement set (the whole set is disjoint when
// no other transaction shares the demarcation point).
func copyStmts(r *taint.Result) *intern.Bits {
	if r == nil {
		return &intern.Bits{}
	}
	return r.Stmts().Clone()
}

// ownedStmts returns the statements of r owned by no other slice in the
// group: exactly those whose owner count is 1 (r itself).
func ownedStmts(r *taint.Result, owners map[uint32]int) *intern.Bits {
	out := &intern.Bits{}
	if r == nil {
		return out
	}
	r.Stmts().Each(func(s uint32) bool {
		if owners[s] == 1 {
			out.Add(s)
		}
		return true
	})
	return out
}

// stmtHash folds a dense statement ID into an order-independent set hash
// (a splitmix64-style bit mix).
func stmtHash(s uint32) uint64 {
	h := uint64(s) + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// VerifyFlow runs the paper's information-flow pairing check: the disjoint
// request segment of each transaction is used as taint source; the pairing
// is confirmed when propagation reaches the transaction's own response
// slice. With the disjoint-sub-slice preprocessing this is one-to-one even
// under code reuse (Fig. 5). stats, when non-nil, receives flow-check and
// taint workload counters; VerifyFlow is sequential, so one unsynchronized
// shard suffices. sums, when non-nil, is a shared taint summary cache
// (summaries are universe-independent, so the slice phase's cache is
// directly reusable here).
func VerifyFlow(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph, pairs []Pair, stats *obs.Shard, sums *taint.SummaryCache) {
	VerifyFlowBudgeted(p, model, cg, pairs, stats, sums, nil)
}

// VerifyFlowBudgeted is VerifyFlow under a budget: each pair's flow check
// is skipped once the budget is exhausted (one diagnostic names how many
// checks were dropped), a truncated propagation leaves the pair unconfirmed
// with a diagnostic, and a panicking check is recovered per pair. Degraded
// pairs keep FlowConfirmed == false — pairing quality downgrades, the
// report still ships. A nil budget behaves exactly like VerifyFlow.
func VerifyFlowBudgeted(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph,
	pairs []Pair, stats *obs.Shard, sums *taint.SummaryCache, bud *budget.Budget) []budget.Diagnostic {

	var diags []budget.Diagnostic
	for i := range pairs {
		pr := &pairs[i]
		if !pr.HasResponse {
			continue
		}
		site := fmt.Sprintf("%s@%d", pr.Tx.DP.Method, pr.Tx.DP.Index)
		if ex := bud.Over(budget.PhasePairing, site); ex != nil {
			remaining := 0
			for _, q := range pairs[i:] {
				if q.HasResponse {
					remaining++
				}
			}
			d := budget.ExceededDiag(ex)
			d.Detail = fmt.Sprintf("%s; %d flow checks skipped", ex.Limit, remaining)
			diags = append(diags, d)
			break
		}
		if d := verifyPairFlow(p, model, cg, pr, site, stats, sums, bud); d != nil {
			diags = append(diags, *d)
		}
	}
	return diags
}

// verifyPairFlow runs one pair's information-flow check, converting panics
// and budget truncation into a diagnostic (nil when the check completed).
func verifyPairFlow(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph,
	pr *Pair, site string, stats *obs.Shard, sums *taint.SummaryCache,
	bud *budget.Budget) (diag *budget.Diagnostic) {

	// The check's span opens before the fault probe and ends after the
	// recover handler's dump: a dump's last line is the check that died.
	sp := stats.Span(obs.CatPairFlow, site)
	defer func() {
		if r := recover(); r != nil {
			d := budget.PanicDiag(budget.PhasePairing, site, r)
			d.Flight = stats.FlightDump()
			diag = &d
		}
		sp.End()
	}()
	bud.MaybePanic(budget.PhasePairing, site)

	stats.Add(obs.CtrPairFlowChecks, 1)
	eng := taint.NewEngine(p, model, cg)
	eng.MaxAsyncHops = 1
	eng.Stats = stats
	eng.Budget = bud
	eng.BudgetPhase = budget.PhasePairing
	if sums != nil {
		eng.Summaries = sums
	}
	src := pr.DisjointRequest
	if src.Empty() {
		src = pr.Tx.Request.Stmts()
	}
	flow, seeds := eng.ForwardDefs(src)
	if seeds == 0 {
		return nil
	}
	pr.FlowSeeds = seeds
	if flow.Truncated != nil {
		d := budget.ExceededDiag(flow.Truncated)
		d.Phase = budget.PhasePairing
		d.Site = site
		d.Flight = stats.FlightDump()
		return &d
	}
	// Keep the smallest reached statement as the deterministic witness of
	// the confirmation (ordered by (method ref, index), not by dense ID, so
	// provenance matches the pre-interning implementation byte for byte).
	idx := flow.Index()
	var best taint.StmtID
	bestRank := uint32(0)
	idx.EachStmt(pr.Tx.Response.Stmts(), func(m *ir.Method, mid uint32, i int) bool {
		if !flow.Stmts().Has(idx.StmtID(mid, i)) {
			return true
		}
		if r := idx.RefRank(mid); !pr.FlowConfirmed || r < bestRank || (r == bestRank && i < best.Index) {
			best, bestRank = taint.StmtID{Method: m.Ref(), Index: i}, r
		}
		pr.FlowConfirmed = true
		return true
	})
	pr.FlowWitness = best
	return nil
}
