package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// layerBound is the per-layer regression gate the self-test proves: a
// layer's time per app may grow by this share before it counts as slower.
const layerBound = 0.25

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func metricMap(ms []metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		out[m.name] = m
	}
	return out
}

// TestStretchedLayerMovesOnlyItsMetric plants a 1.5x slowdown in one
// layer's timing wrapper at a time and checks that this layer's time per
// app moves past layerBound while every other layer's stays within it.
// Plain and stretched rounds alternate over one workload so that drift in
// the machine's speed hits both sides alike.
func TestStretchedLayerMovesOnlyItsMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced pipeline on generated apps")
	}
	root := repoRoot(t)
	w, err := setup("gen-cold", 1729, root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.apps = w.apps[:40]
	const rounds = 8
	for _, name := range layers {
		t.Run(name, func(t *testing.T) {
			plain, slow := newLoop(w), newLoop(w)
			plain.tr = newTracer()
			slow.tr = newTracer()
			slow.tr.stretch = map[string]float64{name: 1.5}
			for i := 0; i < rounds; i++ {
				plain.round()
				slow.round()
			}
			if plain.failed+slow.failed != 0 {
				t.Fatalf("failed operations: %v %v", plain.errs, slow.errs)
			}
			before := metricMap(layerMetrics(w, plain, map[string]any{}))
			after := metricMap(layerMetrics(w, slow, map[string]any{}))
			worst, worstName := 0.0, ""
			for _, other := range layers {
				ratio := after[other+".ms"].value / before[other+".ms"].value
				if other != name && math.Abs(ratio-1) > worst {
					worst, worstName = math.Abs(ratio-1), other
				}
				switch {
				case other == name && ratio < 1+layerBound:
					t.Errorf("%s stretched 1.5x moved only %.3fx", name, ratio)
				case other != name && math.Abs(ratio-1) > layerBound:
					t.Errorf("stretching %s moved %s by %.3fx", name, other, ratio)
				}
			}
			t.Logf("%s moved %.3fx; largest other move %.3f (%s)", name,
				after[name+".ms"].value/before[name+".ms"].value, worst, worstName)
		})
	}
}

// TestTracedCountsRepeat checks that two traced runs of one seed report
// identical per-layer counts on every workload, and that the metrics the
// benchmark prints are exactly those BENCHMARK.json declares.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload")
	}
	root := repoRoot(t)
	spec := loadSpec(t, root)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var runs []map[string]metric
			for i := 0; i < 2; i++ {
				res, err := bench(config{root: root, workload: name, seed: 7, traced: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.errs)
				}
				checkNames(t, res.metrics, spec.PerLayer)
				runs = append(runs, metricMap(res.metrics))
			}
			for n, m := range runs[0] {
				if m.unit == "count" || m.unit == "kB" || strings.HasSuffix(n, "_ratio") && n != "tracing.overhead_ratio" {
					if runs[1][n].value != m.value {
						t.Errorf("%s: %v then %v", n, m.value, runs[1][n].value)
					}
				}
			}
		})
	}
	res, err := bench(config{root: root, workload: "corpus-cold", seed: 7, dur: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d operations failed: %v", res.failed, res.errs)
	}
	checkNames(t, res.metrics, spec.EndToEnd)
}

type specMetric struct {
	Name, Unit string
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T, root string) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkNames(t *testing.T, got []metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	g := metricMap(got)
	for _, w := range want {
		m, ok := g[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared but not printed", w.Name)
		case m.unit != w.Unit:
			t.Errorf("%s: unit %q, declared %q", w.Name, m.unit, w.Unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			t.Errorf("%s: %v", w.Name, m.value)
		}
	}
}

// TestDigestMismatchFailsPendingOps checks that operations waiting on the
// corpus digest count as failed when it does not match, and when the run
// ends before every corpus app was seen.
func TestDigestMismatchFailsPendingOps(t *testing.T) {
	w, err := setup("corpus-cold", 1, repoRoot(t), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	run := func(n int) *digestCheck {
		d := &digestCheck{want: "not the digest", canon: make([][]byte, len(w.apps))}
		for _, a := range w.apps[:n] {
			r, err := coldOp(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.check(a, r.rep); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	if got := run(3).late(); got != 3 {
		t.Errorf("unverified: %d late failures, want 3", got)
	}
	d := run(len(w.apps))
	if got := d.late(); got != len(w.apps) {
		t.Errorf("mismatch: %d late failures, want %d", got, len(w.apps))
	}
	r, err := coldOp(w.apps[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.check(w.apps[0], r.rep) == nil {
		t.Error("an operation after a digest mismatch passed its check")
	}
}

// TestQuartileMatchesPython pins spread to the statistic the acceptance
// check computes with Python's statistics.quantiles(values, n=4).
func TestQuartileMatchesPython(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartile(vs, 1), quartile(vs, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if got := spread(vs); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread %v, want 1", got)
	}
}
