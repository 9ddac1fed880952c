package extractocol

import (
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/report"
	"extractocol/internal/resultcache"
)

// analyzeAllocsCeiling is 5% above the 2 318 allocations one cold
// core.Analyze of radio reddit makes with the default options. The count
// depends only on the input, so the margin is for small legitimate drift,
// not for noise: a deep copy of the register environment at every call or
// return, or a semantic model built per call (218 allocations), crosses it.
const analyzeAllocsCeiling = 2434

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
// cached report and rendering it as text and JSON. Each ceiling is 5%
// above the count this layer makes when it builds from shared allocations;
// one allocation per element (per instruction's Args, per pool string, per
// class, method or field, per decoded cache string, per rendered line or
// signature string) or the re-indent pass of json.MarshalIndent crosses
// it. A render makes one allocation, the copy of its document out of the
// pooled buffer.
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
	profiled := *rep // keeps its per-run phase profile
	rep.Profile = nil
	entry, err := resultcache.EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64 // counts in the comment above each row
		op      func() error
	}{
		// 156; 1 291 before decoding in bulk.
		{"dex.Decode(radio reddit)", 164, decodeOp(container(rr))},
		// 1 631; 11 700 before decoding in bulk.
		{"dex.Decode(Pinterest)", 1713, decodeOp(container(app("Pinterest")))},
		// 133; 274 before decoding in bulk.
		{"resultcache.DecodeReport(radio reddit)", 140, func() error {
			_, err := resultcache.DecodeReport(entry)
			return err
		}},
		// 1; 135 with a fmt.Fprintf per line.
		{"report.Text(radio reddit)", 1.05, func() error {
			report.Text(rep)
			return nil
		}},
		// 1; 109 through json.MarshalIndent, 88 in one pass with
		// signature strings rendered one string each.
		{"report.JSON(radio reddit)", 1.05, func() error {
			_, err := report.JSON(rep)
			return err
		}},
		// 1; 145 with the profile through json.MarshalIndent.
		{"report.JSON(radio reddit with its profile)", 1.05, func() error {
			_, err := report.JSON(&profiled)
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
		t.Logf("%s: %v allocations, ceiling %v", c.name, allocs, c.ceiling)
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
