package core

import (
	"testing"

	"extractocol/internal/obs"
)

// TestAnalyzeProfileInvariants pins the observability contract of Analyze:
// every pipeline stage appears in the profile, phase timings are sane, and
// the workload counters agree with the facts the report itself states.
func TestAnalyzeProfileInvariants(t *testing.T) {
	rep, err := Analyze(radioRedditLike(), NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	prof := rep.Profile
	if prof == nil {
		t.Fatal("Report.Profile is nil")
	}

	wantPhases := []string{
		obs.PhaseValidate, obs.PhaseCallgraph, obs.PhaseSlice, obs.PhasePairing,
		obs.PhaseSigbuild, obs.PhaseDedup, obs.PhaseTxdep,
	}
	if len(prof.Phases) != len(wantPhases) {
		t.Fatalf("profile has %d phases, want %d: %+v", len(prof.Phases), len(wantPhases), prof.Phases)
	}
	for i, ph := range prof.Phases {
		if ph.Name != wantPhases[i] {
			t.Errorf("phase[%d] = %q, want %q (pipeline order)", i, ph.Name, wantPhases[i])
		}
		if ph.DurationNS < 0 {
			t.Errorf("phase %q has negative duration %d", ph.Name, ph.DurationNS)
		}
	}

	sum, total := prof.PhaseSum(), rep.Duration
	if sum <= 0 {
		t.Fatalf("phase sum = %v, want > 0", sum)
	}
	if sum > total {
		t.Errorf("phase sum %v exceeds report duration %v", sum, total)
	}
	// The phases bracket essentially all of Analyze; anything else is map
	// shuffling between stages. Half the wall clock is a very generous bound
	// on that overhead.
	if sum < total/2 {
		t.Errorf("phases cover %v of %v; the breakdown is missing work", sum, total)
	}
	if prof.TotalNS <= 0 {
		t.Errorf("TotalNS = %d, want > 0", prof.TotalNS)
	}

	// Counters must agree with the report's own facts.
	if got := prof.Counter(obs.CtrDPSites); int(got) != rep.DPCount {
		t.Errorf("%s = %d, want DPCount %d", obs.CtrDPSites, got, rep.DPCount)
	}
	if got := prof.Counter(obs.CtrTransactions); int(got) != len(rep.Transactions) {
		t.Errorf("%s = %d, want %d transactions", obs.CtrTransactions, got, len(rep.Transactions))
	}
	if got := prof.Counter(obs.CtrTxdepEdges); int(got) != len(rep.Deps) {
		t.Errorf("%s = %d, want %d deps", obs.CtrTxdepEdges, got, len(rep.Deps))
	}
	// The sample app has two real transactions, so the pipeline must have
	// sliced, propagated taint, and built signatures.
	for _, ctr := range []string{
		obs.CtrSlicesBackward, obs.CtrTaintFacts, obs.CtrTaintStmts, obs.CtrSigbuildJobs,
	} {
		if prof.Counter(ctr) <= 0 {
			t.Errorf("%s = %d, want > 0", ctr, prof.Counter(ctr))
		}
	}
	if jobs, errs := prof.Counter(obs.CtrSigbuildJobs), prof.Counter(obs.CtrSigbuildErrors); errs > jobs {
		t.Errorf("sigbuild errors %d exceed jobs %d", errs, jobs)
	}
}

// TestAnalyzeProfileScopedCounters checks the scope filter is visible in the
// profile: scoped-out transactions are counted, not silently dropped.
func TestAnalyzeProfileScopedCounters(t *testing.T) {
	opts := NewOptions()
	opts.ScopePrefix = "no.such.prefix"
	rep, err := Analyze(radioRedditLike(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transactions) != 0 {
		t.Fatalf("scope filter kept %d transactions, want 0", len(rep.Transactions))
	}
	if got := rep.Profile.Counter(obs.CtrSigbuildScoped); got <= 0 {
		t.Errorf("%s = %d, want > 0 when everything is scoped out", obs.CtrSigbuildScoped, got)
	}
	if got := rep.Profile.Counter(obs.CtrSigbuildJobs); got != 0 {
		t.Errorf("%s = %d, want 0 when everything is scoped out", obs.CtrSigbuildJobs, got)
	}
}
