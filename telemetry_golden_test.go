// Golden exposition test: one fully armed analysis (tracer, registry,
// event log, flight recorder, injected slice and txdep panics) renders the
// four telemetry formats — Prometheus text, the JSONL event stream, the
// Chrome trace and the -profile JSON — and each is compared byte for byte
// with testdata/telemetry/, after masking the values that measure time.
// Names, labels, order, counts, sequence numbers, tracks and sites stay
// exact, so any change to what the plane records or how it renders fails
// here.
package extractocol

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/obs"
	"extractocol/internal/report"
)

// armedTelemetryRun analyzes radio reddit with every telemetry sink armed
// and two counted faults injected, and returns the four rendered outputs,
// keyed by golden file name, before normalization.
func armedTelemetryRun(t *testing.T) map[string]string {
	t.Helper()
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	evlog := obs.NewEventLog(&events)
	reg := obs.NewRegistry()
	reg.LogEvents(evlog)
	opts := core.NewOptions()
	opts.Tracer = obs.NewTracer()
	opts.Obs = reg
	opts.Flight = true
	opts.Faults = budget.NewFaultInjector(
		budget.Fault{Phase: budget.PhaseSlice, Kind: budget.FaultPanic, Once: true},
		budget.Fault{Phase: budget.PhaseTxdep, Kind: budget.FaultPanic, Once: true},
	)
	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := evlog.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := opts.Tracer.Export(1, rep.Package).JSON()
	if err != nil {
		t.Fatal(err)
	}
	profile, err := report.ProfileJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"prometheus.txt": reg.Prometheus(),
		"events.jsonl":   events.String(),
		"trace.json":     string(trace) + "\n",
		"profile.json":   string(profile) + "\n",
	}
}

var (
	promValue      = regexp.MustCompile(` [^ ]+$`)
	eventTiming    = regexp.MustCompile(`"(t_ns|dur_ns)":\d+`)
	traceTiming    = regexp.MustCompile(`"(ts|dur)": [-+.0-9eE]+`)
	profileNS      = regexp.MustCompile(`"([a-z0-9_]*_ns|duration_ms)": \d+`)
	profileBuckets = regexp.MustCompile(`"buckets": \[[^\]]*\]`)
	profileGauges  = regexp.MustCompile(`"gauges": \{[^}]*\}`)
	gaugeValue     = regexp.MustCompile(`: [-+.0-9eE]+`)
)

// normalizeTelemetry masks the timing values of one rendered output; every
// other byte is kept.
func normalizeTelemetry(name, out string) string {
	switch name {
	case "prometheus.txt":
		var b strings.Builder
		for _, line := range strings.SplitAfter(out, "\n") {
			series, _, _ := strings.Cut(line, " ")
			switch {
			case strings.HasPrefix(line, "#"):
			case strings.Contains(series, "_bucket{"):
				continue
			case strings.Contains(series, "_seconds") && !strings.Contains(series, "_count"),
				strings.HasSuffix(series, "_ns_total"),
				strings.HasPrefix(series, "extractocol_"+obs.GaugeHeapAllocAfter):
				line = promValue.ReplaceAllString(strings.TrimSuffix(line, "\n"), " <t>") + "\n"
			}
			b.WriteString(line)
		}
		return b.String()
	case "events.jsonl":
		return eventTiming.ReplaceAllString(out, `"$1":"<t>"`)
	case "trace.json":
		return traceTiming.ReplaceAllString(out, `"$1": "<t>"`)
	case "profile.json":
		out = profileNS.ReplaceAllString(out, `"$1": "<t>"`)
		out = profileBuckets.ReplaceAllString(out, `"buckets": "<t>"`)
		return profileGauges.ReplaceAllStringFunc(out, func(g string) string {
			return gaugeValue.ReplaceAllString(g, `: "<t>"`)
		})
	}
	panic("unknown telemetry output " + name)
}

// TestTelemetryExpositionGolden pins the four exposition formats of one
// armed run against testdata/telemetry. On a mismatch it prints the
// normalized output so the difference can be read off directly.
func TestTelemetryExpositionGolden(t *testing.T) {
	for name, out := range armedTelemetryRun(t) {
		got := normalizeTelemetry(name, out)
		path := filepath.Join("testdata", "telemetry", name)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from %s; normalized output:\n%s", name, path, got)
		}
	}
}
