package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"extractocol/internal/corpus"
	"extractocol/internal/dex"
)

func writeApp(t *testing.T, name string) string {
	t.Helper()
	app, err := corpus.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "app.apkb")
	if err := dex.WriteFile(path, app.Prog); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllFormats(t *testing.T) {
	path := writeApp(t, "radio reddit")
	for _, format := range []string{"text", "json", "dot"} {
		if err := run(config{path: path, format: format, hops: 1}); err != nil {
			t.Errorf("format %s: %v", format, err)
		}
	}
}

func TestRunScoped(t *testing.T) {
	path := writeApp(t, "KAYAK")
	if err := run(config{path: path, format: "text", scope: "com.kayak.", hops: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFormat(t *testing.T) {
	path := writeApp(t, "blippex")
	if err := run(config{path: path, format: "yaml", hops: 1}); err == nil {
		t.Fatal("accepted unknown format")
	}
}

// TestRunChecksFlagsBeforeWork: a bad -format or a negative budget, hop
// count or deadline fails before the app is analyzed, so nothing reaches
// the cache.
func TestRunChecksFlagsBeforeWork(t *testing.T) {
	path := writeApp(t, "blippex")
	for _, tc := range []struct {
		name string
		cfg  config
		want string
	}{
		{"format", config{format: "bogus", hops: 1}, `unknown format "bogus"`},
		{"async-hops", config{format: "text", hops: -1}, "-async-hops must not be negative"},
		{"slice-budget", config{format: "text", hops: 1, sliceSteps: -5}, "-slice-budget must not be negative"},
		{"fixpoint-budget", config{format: "text", hops: 1, fixIters: -7}, "-fixpoint-budget must not be negative"},
		{"deadline", config{format: "text", hops: 1, deadline: -3 * time.Second}, "-deadline must not be negative"},
	} {
		cache := filepath.Join(t.TempDir(), "cache")
		tc.cfg.path, tc.cfg.cacheDir = path, cache
		var err error
		captureStdout(t, func() { err = run(tc.cfg) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if entries, _ := os.ReadDir(cache); len(entries) > 0 {
			t.Errorf("%s: run wrote %d cache entries before failing", tc.name, len(entries))
		}
	}
}

func TestRunRejectsMissingFile(t *testing.T) {
	if err := run(config{path: filepath.Join(t.TempDir(), "missing.apkb"), format: "text", hops: 1}); err == nil {
		t.Fatal("accepted missing file")
	}
}

// TestRunProfileEmitsPhaseBreakdown checks the -profile acceptance
// criterion: the emitted JSON carries a per-phase breakdown covering at
// least 6 pipeline stages.
func TestRunProfileEmitsPhaseBreakdown(t *testing.T) {
	path := writeApp(t, "radio reddit")
	out := captureStdout(t, func() {
		if err := run(config{path: path, format: "dot", hops: 1, profile: true}); err != nil {
			t.Error(err)
		}
	})
	i := bytes.Index(out, []byte("{\n  \"package\""))
	if i < 0 {
		t.Fatalf("no profile JSON in output:\n%s", out)
	}
	var doc struct {
		Profile struct {
			Phases []struct {
				Name       string `json:"name"`
				DurationNS int64  `json:"duration_ns"`
			} `json:"phases"`
			Counters map[string]int64 `json:"counters"`
		} `json:"profile"`
	}
	if err := json.Unmarshal(out[i:], &doc); err != nil {
		t.Fatalf("profile output is not JSON: %v\n%s", err, out[i:])
	}
	if len(doc.Profile.Phases) < 6 {
		t.Fatalf("profile covers %d phases, want >= 6: %+v", len(doc.Profile.Phases), doc.Profile.Phases)
	}
	if len(doc.Profile.Counters) == 0 {
		t.Fatal("profile has no counters")
	}
}

// TestRunCacheWarmServesIdenticalReport drives the -cache flag end to end:
// a cold run fills the cache directory, the warm run prints the identical
// report, and its profile shows the hit.
func TestRunCacheWarmServesIdenticalReport(t *testing.T) {
	path := writeApp(t, "radio reddit")
	cacheDir := filepath.Join(t.TempDir(), "cache")
	cold := captureStdout(t, func() {
		if err := run(config{path: path, format: "text", hops: 1, cacheDir: cacheDir}); err != nil {
			t.Error(err)
		}
	})
	warm := captureStdout(t, func() {
		if err := run(config{path: path, format: "text", hops: 1, cacheDir: cacheDir}); err != nil {
			t.Error(err)
		}
	})
	// Timing and phase lines are run-local by design (a warm run reports
	// its own, fresh measurements); everything else must match byte for
	// byte. ci.sh applies the same normalization.
	stripRunLocal := func(out []byte) []byte {
		var kept [][]byte
		for _, line := range bytes.Split(out, []byte("\n")) {
			if bytes.Contains(line, []byte("analysis time")) || bytes.Contains(line, []byte("phases:")) {
				continue
			}
			kept = append(kept, line)
		}
		return bytes.Join(kept, []byte("\n"))
	}
	if !bytes.Equal(stripRunLocal(cold), stripRunLocal(warm)) {
		t.Error("warm -cache run printed a different report")
	}
	profiled := captureStdout(t, func() {
		if err := run(config{path: path, format: "dot", hops: 1, profile: true, cacheDir: cacheDir}); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Contains(profiled, []byte(`"cache_report_hits": 1`)) {
		t.Errorf("warm profile lacks the cache hit:\n%s", profiled)
	}
}

// TestRunTelemetryFlags drives -events, -ops and the profile histograms in
// one run: the event stream must bracket the analysis with run_start and
// run_end and carry phase events, and the -profile JSON must include the
// per-phase latency histograms with quantiles.
func TestRunTelemetryFlags(t *testing.T) {
	path := writeApp(t, "radio reddit")
	eventsFile := filepath.Join(t.TempDir(), "events.jsonl")
	out := captureStdout(t, func() {
		if err := run(config{
			path: path, format: "dot", hops: 1, profile: true,
			opsAddr: "127.0.0.1:0", eventsFile: eventsFile, flight: true,
		}); err != nil {
			t.Error(err)
		}
	})
	for _, want := range []string{`"hists"`, `"p50_ns"`, `"p99_ns"`, `"phase_`} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("profile output lacks %s:\n%s", want, out)
		}
	}
	events, err := os.ReadFile(eventsFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"type":"run_start"`, `"type":"phase_end"`, `"type":"run_end"`, `{"seq":1,`} {
		if !bytes.Contains(events, []byte(want)) {
			t.Errorf("event stream lacks %s:\n%s", want, events)
		}
	}
}

func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}
