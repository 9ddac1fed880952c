package extractocol

import (
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/report"
	"extractocol/internal/resultcache"
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

// TestWarmPathAllocs pins the allocations of the layers a warm re-analysis
// runs besides the cache lookup: decoding the container, decoding the
// cached report and rendering it. Each ceiling is 5% above the count this
// layer makes when it builds from shared allocations; one allocation per
// element (per instruction's Args, per pool string, per class, method or
// field, per decoded cache string) or the re-indent pass of
// json.MarshalIndent crosses it.
func TestWarmPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on instrumented paths")
	}
	app := func(name string) *corpus.App {
		a, err := corpus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	container := func(a *corpus.App) []byte {
		data, err := dex.Encode(a.Prog)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	rr := app("radio reddit")
	rep, err := core.Analyze(rr.Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep.Profile = nil // per-run phase timings; the warm path renders them too
	entry, err := resultcache.EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64 // count at 156, 1 631, 133 and 88; the parent's 1 291, 11 700, 274 and 109
		op      func() error
	}{
		{"dex.Decode(radio reddit)", 164, decodeOp(container(rr))},
		{"dex.Decode(Pinterest)", 1713, decodeOp(container(app("Pinterest")))},
		{"resultcache.DecodeReport(radio reddit)", 140, func() error {
			_, err := resultcache.DecodeReport(entry)
			return err
		}},
		{"report.JSON(radio reddit)", 92, func() error {
			_, err := report.JSON(rep)
			return err
		}},
	} {
		var opErr error
		allocs := testing.AllocsPerRun(20, func() {
			if err := c.op(); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", c.name, opErr)
		}
		if allocs > c.ceiling {
			t.Errorf("%s makes %v allocations, ceiling %v", c.name, allocs, c.ceiling)
		}
	}
}

func decodeOp(data []byte) func() error {
	return func() error {
		_, err := dex.Decode(data)
		return err
	}
}
