// Labeled-traffic generator tests: RandEntries must be deterministic per
// seed, its labels must be exact ground truth (computed from the regex
// specification, not from a matcher), and the matcher — at any worker
// count — must reproduce those labels verbatim.
package trace

import (
	"encoding/json"
	"reflect"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/sigvm"
)

// genReports analyzes a few seeded generated apps.
func genReports(t testing.TB, seed uint64, n int) []*core.Report {
	t.Helper()
	var reps []*core.Report
	for _, app := range corpus.Rand(seed, n) {
		rep, err := core.Analyze(app.Prog, core.NewOptions())
		if err != nil {
			t.Fatalf("%s: %v", app.Spec.Name, err)
		}
		reps = append(reps, rep)
	}
	return reps
}

func TestRandEntriesDeterministic(t *testing.T) {
	rep := genReports(t, 11, 1)[0]
	a := RandEntries(42, rep, 100)
	b := RandEntries(42, rep, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different labeled traffic")
	}
	if len(a) != 100 {
		t.Fatalf("generated %d entries, want 100", len(a))
	}
	c := RandEntries(43, rep, 100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestRandEntriesMixesVerdicts(t *testing.T) {
	rep := genReports(t, 12, 1)[0]
	if len(rep.Transactions) == 0 {
		t.Skip("generated app yielded no transactions")
	}
	labeled := RandEntries(7, rep, 300)
	matching, misses := 0, 0
	for _, le := range labeled {
		if le.WantID != 0 {
			matching++
		} else {
			misses++
		}
	}
	if matching == 0 || misses == 0 {
		t.Fatalf("degenerate corpus: %d matching, %d near-miss", matching, misses)
	}
}

// TestClassifyReproducesLabels is the exact-verdict gate: every entry's
// best-match transaction must equal the label, serially and under parallel
// fan-out, and the two full results must be byte-identical. The
// interpretive oracle's half of this check is TestClassifyMatchesOracle in
// internal/sigvm.
func TestClassifyReproducesLabels(t *testing.T) {
	for i, rep := range genReports(t, 21, 4) {
		labeled := RandEntries(uint64(100+i), rep, 250)
		entries := Entries(labeled)
		bundle := sigvm.Compile(rep)
		vm := Classify(rep, entries, ClassifyOptions{Bundle: bundle})
		vmPar := Classify(rep, entries, ClassifyOptions{Bundle: bundle, Workers: 4})

		for j, le := range labeled {
			if vm.Verdicts[j] != le.WantID {
				t.Fatalf("app %d entry %d (%s %s): verdict %d, label %d",
					i, j, le.Method, le.URL, vm.Verdicts[j], le.WantID)
			}
		}
		jv := mustJSON(t, vm)
		jp := mustJSON(t, vmPar)
		if jv != jp {
			t.Fatalf("app %d: serial and parallel classifications differ:\n%s\n%s", i, jv, jp)
		}
	}
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
