package extractocol

import (
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
)

// analyzeAllocsCeiling is 5% above the 2 385 allocations one cold
// core.Analyze of radio reddit makes with the default options. The count
// depends only on the input, so the margin is for small legitimate drift,
// not for noise: a deep copy of the register environment at every call or
// return, or a semantic model built per call (218 allocations), crosses it.
const analyzeAllocsCeiling = 2504

// TestAnalyzeAllocs pins the allocations of one cold analysis of a corpus
// app.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on instrumented paths")
	}
	p := corpus.RadioReddit().Prog
	opts := core.NewOptions()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := core.Analyze(p, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > analyzeAllocsCeiling {
		t.Fatalf("core.Analyze(radio reddit) makes %v allocations, ceiling %d", allocs, analyzeAllocsCeiling)
	}
}
