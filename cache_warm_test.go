// Warm-path acceptance tests for the persistent result cache: a warm run
// must skip the analysis pipeline entirely and serve a byte-identical
// report, for one app and across the whole parallel corpus evaluation.
package extractocol

import (
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/evaluate"
	"extractocol/internal/obs"
	"extractocol/internal/report"
	"extractocol/internal/resultcache"
)

// reportBytes renders a report's JSON with the run-local fields zeroed, the
// equality notion under which cached and recomputed reports must agree.
func reportBytes(t *testing.T, rep *core.Report) string {
	t.Helper()
	clone := *rep
	clone.Duration = 0
	clone.Profile = nil
	data, err := report.JSON(&clone)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestWarmRunSkipsPipeline is the tentpole acceptance check: after a cold
// run fills the cache, a warm run of the same binary + options serves the
// identical report with zero pipeline work — its profile records only the
// resultcache phase, no slicing, pairing, signature or dependency phase
// ever starts, and the hit counter reads exactly 1.
func TestWarmRunSkipsPipeline(t *testing.T) {
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions()
	key, err := resultcache.KeyForProgram(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cache
	opts.CacheKey = key

	cold, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Profile.Counters[obs.CtrCacheReportMisses]; got != 1 {
		t.Fatalf("cold run cache_report_misses = %d, want 1", got)
	}
	if got := cold.Profile.Counters[obs.CtrCacheReportWrites]; got != 1 {
		t.Fatalf("cold run cache_report_writes = %d, want 1", got)
	}

	warm, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Profile.Counters[obs.CtrCacheReportHits]; got != 1 {
		t.Fatalf("warm run cache_report_hits = %d, want 1", got)
	}
	for _, ph := range warm.Profile.Phases {
		if ph.Name != obs.PhaseResultCache {
			t.Errorf("warm run entered pipeline phase %q", ph.Name)
		}
	}
	for _, ctr := range []string{obs.CtrSliceJobs, obs.CtrTaintFacts, obs.CtrPairFlowChecks, obs.CtrDPSites} {
		if got := warm.Profile.Counters[ctr]; got != 0 {
			t.Errorf("warm run did pipeline work: %s = %d, want 0", ctr, got)
		}
	}
	if warm.Duration <= 0 {
		t.Error("warm run must report a fresh (positive) duration")
	}
	if reportBytes(t, warm) != reportBytes(t, cold) {
		t.Error("warm report differs from cold report")
	}
}

// TestCorpusWarmRunEquivalence runs the whole parallel corpus evaluation
// cold and then warm against one shared cache directory: every app's warm
// report must be byte-identical to its cold one, and every app must be
// served from the cache (hits sum to the corpus size).
func TestCorpusWarmRunEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus twice")
	}
	cfg := evaluate.RunConfig{CacheDir: t.TempDir()}

	cold, _ := evaluate.RunAllConfig(cfg)
	warm, _ := evaluate.RunAllConfig(cfg)
	if len(cold) != len(warm) || len(cold) == 0 {
		t.Fatalf("cold ran %d apps, warm %d", len(cold), len(warm))
	}

	var hits int64
	for i := range cold {
		if cold[i].App.Spec.Name != warm[i].App.Spec.Name {
			t.Fatalf("app order diverged: %s vs %s", cold[i].App.Spec.Name, warm[i].App.Spec.Name)
		}
		if got, want := reportBytes(t, warm[i].Report), reportBytes(t, cold[i].Report); got != want {
			t.Errorf("%s: warm report differs from cold report", cold[i].App.Spec.Name)
		}
		hits += warm[i].Report.Profile.Counters[obs.CtrCacheReportHits]
	}
	if hits != int64(len(warm)) {
		t.Errorf("cache_report_hits total = %d, want %d (every app served warm)", hits, len(warm))
	}
}
