// Graceful-degradation monotonicity: shrinking the slice-step budget must
// shrink the output predictably. Slicing runs its jobs in order and drains
// one cumulative step pool as it goes, so the completed transactions of
// any budgeted run are a prefix of the unbudgeted run's, and everything
// dropped is named in the diagnostics.
package extractocol

import (
	"strings"
	"testing"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/corpus"
)

func TestDegradationMonotonic(t *testing.T) {
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	baseKeys := txKeys(base)
	if len(baseKeys) == 0 {
		t.Fatal("baseline has no transactions")
	}

	prev := len(baseKeys) + 1
	sawShorter := false
	for _, steps := range []int64{1 << 20, 2000, 500, 100, 10} {
		opts := core.NewOptions()
		opts.MaxSliceSteps = steps
		rep, err := core.Analyze(app.Prog, opts)
		if err != nil {
			t.Fatalf("steps=%d: %v", steps, err)
		}
		keys := txKeys(rep)

		// Prefix property: a tighter budget never reorders or substitutes
		// transactions, it only cuts the tail.
		if len(keys) > len(baseKeys) {
			t.Fatalf("steps=%d: %d transactions exceed baseline %d", steps, len(keys), len(baseKeys))
		}
		for i, k := range keys {
			if k != baseKeys[i] {
				t.Fatalf("steps=%d: transaction %d is %q, baseline has %q (not a prefix)",
					steps, i, k, baseKeys[i])
			}
		}

		// Monotonicity: fewer steps can only mean fewer transactions.
		if len(keys) > prev {
			t.Errorf("steps=%d completed %d transactions, larger than the %d of a bigger budget",
				steps, len(keys), prev)
		}
		prev = len(keys)

		if len(keys) < len(baseKeys) {
			sawShorter = true
			if len(rep.Diagnostics) == 0 {
				t.Errorf("steps=%d dropped transactions without diagnostics", steps)
			}
			for _, d := range rep.Diagnostics {
				if d.Phase != budget.PhaseSlice {
					t.Errorf("steps=%d: diagnostic in phase %q, want slice: %s", steps, d.Phase, d)
				}
				// Slice diagnostics name the dropped job "entry -> dp@site".
				if !strings.Contains(d.Site, " -> ") {
					t.Errorf("steps=%d: diagnostic %q does not name the dropped job", steps, d)
				}
			}
		}
	}
	if !sawShorter {
		t.Fatal("no budget in the ladder actually truncated the analysis; tighten the smallest step count")
	}
}

// txKeys lists the report's transaction identities in output order.
func txKeys(r *core.Report) []string {
	var out []string
	for _, tx := range r.Transactions {
		out = append(out, tx.Key())
	}
	return out
}
