package evaluate

import (
	"strings"
	"testing"

	"extractocol/internal/corpus"
)

// TestRunDifferentialSmallCorpus runs the full four-axis harness over a
// small generated corpus — the same gate ci.sh runs at N=100, kept small
// enough for every `go test ./...`.
func TestRunDifferentialSmallCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes a generated corpus six times")
	}
	res, err := RunDifferential(DiffConfig{Seed: 1729, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Mismatches(); got != 0 {
		t.Fatalf("%d mismatches:\n%s", got, FormatDifferential(res))
	}
	if len(res.Axes) != 4 {
		t.Fatalf("%d axes, want 4", len(res.Axes))
	}
	if last := res.Axes[len(res.Axes)-1]; last.Name != "budget" {
		t.Fatalf("last axis = %s, want budget", last.Name)
	}
	if !strings.Contains(FormatDifferential(res), "OK: all axes byte-identical") {
		t.Error("formatter missing the OK verdict")
	}

	// The digest names the corpus: a second harness run must agree.
	again, err := RunDifferential(DiffConfig{Seed: 1729, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != again.Digest {
		t.Errorf("digest not reproducible: %s vs %s", res.Digest, again.Digest)
	}
	other, err := RunDifferential(DiffConfig{Seed: 1730, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest == other.Digest {
		t.Error("different seeds produced the same corpus digest")
	}
}

func TestRunDifferentialRejectsBadSize(t *testing.T) {
	if _, err := RunDifferential(DiffConfig{Seed: 1, N: 0}); err == nil {
		t.Fatal("accepted empty corpus")
	}
}

// TestCanonicalReportStripsRunLocals pins the comparison contract: two
// reports differing only in wall-clock duration and profile must
// canonicalize to the same bytes.
func TestCanonicalReportStripsRunLocals(t *testing.T) {
	apps := corpus.Rand(1729, 1)
	a, err := RunApp(apps[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunApp(apps[0])
	if err != nil {
		t.Fatal(err)
	}
	ca, err := CanonicalReport(a.Report)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := CanonicalReport(b.Report)
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Error("re-analysis of one app canonicalizes differently")
	}
}
