package slice

import (
	"reflect"
	"testing"

	"extractocol/internal/callgraph"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
	"extractocol/internal/taint"
)

// Find must run without any stats plumbing: nil Col.
func TestFindNilStats(t *testing.T) {
	p := twoHandlerApp()
	model := semmodel.Default()
	cg := callgraph.Build(p, model)
	txs := Find(p, model, cg, Options{MaxAsyncHops: 1})
	if len(txs) != 2 {
		t.Fatalf("transactions = %d, want 2", len(txs))
	}
}

// With a Collector attached, extraction reports its job and slice counters
// there.
func TestFindPoolObservability(t *testing.T) {
	p := twoHandlerApp()
	model := semmodel.Default()
	cg := callgraph.Build(p, model)

	col := obs.NewCollector()
	txs := Find(p, model, cg, Options{MaxAsyncHops: 1, Col: col})
	prof := col.Snapshot()
	if got := prof.Counter(obs.CtrSliceJobs); got != int64(len(txs)) {
		t.Errorf("slice_jobs = %d, want %d", got, len(txs))
	}
	if prof.Counter(obs.CtrSlicesBackward) == 0 {
		t.Error("no backward slices counted through the collector")
	}
}

// A shared summary cache passed through Options must not change results.
func TestFindSharedSummaries(t *testing.T) {
	p := sharedDPApp()
	model := semmodel.Default()
	cg := callgraph.Build(p, model)
	plain := Find(p, model, cg, Options{MaxAsyncHops: 1})
	sums := taint.NewSummaryCache()
	shared := Find(p, model, cg, Options{MaxAsyncHops: 1, Summaries: sums})
	if !reflect.DeepEqual(plain, shared) {
		t.Error("shared summary cache changed Find output")
	}
}
