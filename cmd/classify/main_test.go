package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunCorpusApp(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run(config{appName: "radio reddit", repeat: 1, workers: 1}); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Contains(out, []byte("matched ")) {
		t.Fatalf("no match summary in output:\n%s", out)
	}
}

func TestRunRejectsMissingTarget(t *testing.T) {
	if err := run(config{repeat: 1}); err == nil {
		t.Fatal("accepted a run with no target")
	}
}

// TestRunRejectsNonPositiveRepeat: -repeat below 1 is an error naming the
// flag, not a silent single pass.
func TestRunRejectsNonPositiveRepeat(t *testing.T) {
	for _, n := range []int{0, -3} {
		var err error
		captureStdout(t, func() {
			err = run(config{appName: "radio reddit", gen: "7:10", repeat: n, workers: 1})
		})
		if err == nil || !strings.Contains(err.Error(), "-repeat") {
			t.Errorf("-repeat %d: err = %v, want an error naming -repeat", n, err)
		}
	}
}

// TestRunNegativeWorkersResolved: a negative -workers runs one matcher per
// CPU, and the summary line prints that width rather than the raw flag.
func TestRunNegativeWorkersResolved(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run(config{appName: "radio reddit", gen: "7:100", repeat: 1, workers: -1}); err != nil {
			t.Error(err)
		}
	})
	want := fmt.Sprintf("(%d workers", runtime.GOMAXPROCS(0))
	if !bytes.Contains(out, []byte(want)) {
		t.Fatalf("summary lacks %q:\n%s", want, out)
	}
}

// TestRunProfileEmitsClassifyHistogram checks classify's -profile parity:
// the appended JSON must carry the per-entry classification latency
// histogram with quantiles, plus the analysis-phase breakdown of the
// signature derivation.
func TestRunProfileEmitsClassifyHistogram(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run(config{
			appName: "radio reddit", gen: "7:500", repeat: 1, workers: 2, profile: true,
		}); err != nil {
			t.Error(err)
		}
	})
	i := bytes.Index(out, []byte("{\n  \"package\""))
	if i < 0 {
		t.Fatalf("no profile JSON in output:\n%s", out)
	}
	var doc struct {
		Classify struct {
			Hists map[string]struct {
				Count int64 `json:"count"`
				P50NS int64 `json:"p50_ns"`
				P99NS int64 `json:"p99_ns"`
			} `json:"hists"`
		} `json:"classify"`
		Analysis *struct {
			Phases []struct {
				Name string `json:"name"`
			} `json:"phases"`
		} `json:"analysis"`
	}
	if err := json.Unmarshal(out[i:], &doc); err != nil {
		t.Fatalf("profile output is not JSON: %v\n%s", err, out[i:])
	}
	h, ok := doc.Classify.Hists["classify_entry"]
	if !ok {
		t.Fatalf("profile lacks the classify_entry histogram: %+v", doc.Classify.Hists)
	}
	// Error-status entries are skipped before the latency clock starts, so
	// the histogram covers the considered entries only.
	if h.Count <= 0 || h.Count > 500 {
		t.Errorf("classify_entry count = %d, want (0, 500]", h.Count)
	}
	if h.P50NS <= 0 || h.P99NS < h.P50NS {
		t.Errorf("implausible quantiles: p50=%d p99=%d", h.P50NS, h.P99NS)
	}
	if doc.Analysis == nil || len(doc.Analysis.Phases) == 0 {
		t.Error("profile lacks the analysis phase breakdown")
	}
}

// TestRunEventsStream drives -events: the analysis behind -app emits a
// bracketed run with phase events into the JSONL file.
func TestRunEventsStream(t *testing.T) {
	eventsFile := filepath.Join(t.TempDir(), "events.jsonl")
	captureStdout(t, func() {
		if err := run(config{
			appName: "radio reddit", gen: "7:100", repeat: 1, workers: 1,
			eventsFile: eventsFile, opsAddr: "127.0.0.1:0",
		}); err != nil {
			t.Error(err)
		}
	})
	events, err := os.ReadFile(eventsFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"type":"run_start"`, `"type":"phase_end"`, `"type":"run_end"`} {
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
