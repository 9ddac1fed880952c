// FuzzAnalyzeDecoded drives decoder-accepted mutations of real corpus
// containers through the full analysis pipeline under a tight budget. The
// decoder already guarantees structural sanity (FuzzDexDecode); this
// target guards the layer above it: whatever the decoder accepts,
// core.Analyze must finish — degraded if need be — without panicking and
// within the deadline, because shipped binaries see exactly this input.
// core.Analyze recovers every panic, into its error or into a panic
// diagnostic, so that it never takes a process down; the target fails on
// either, since it injects no faults and a recovered panic is a bug.
package extractocol

import (
	"strings"
	"testing"
	"time"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/obs"
	"extractocol/internal/wire"
)

func FuzzAnalyzeDecoded(f *testing.F) {
	for _, name := range []string{"Diode", "radio reddit", "TED"} {
		app, err := corpus.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := dex.Encode(app.Prog)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Re-seal the mutated payload so it reaches the section parsers
		// instead of dying at the checksum (same trick as FuzzDexDecode).
		if len(data) < wire.HeaderLen {
			return
		}
		sealed := wire.Seal(dex.Magic, dex.Version, data[wire.HeaderLen:])

		prog, err := dex.Decode(sealed)
		if err != nil {
			return // decoder rejection is FuzzDexDecode's territory
		}

		opts := core.NewOptions()
		opts.Deadline = 500 * time.Millisecond
		opts.MaxSliceSteps = 20000
		opts.MaxFixpointIters = 2000
		// The tracing + explain layer rides along on every fuzz input: span
		// teardown (shard flush on panicking/truncated jobs) and evidence
		// assembly must survive whatever the decoder accepts, too.
		opts.Tracer = obs.NewTracer()
		opts.Explain = true
		start := time.Now()
		rep, err := core.Analyze(prog, opts)
		if err != nil && strings.Contains(err.Error(), "panic during analysis") {
			t.Fatalf("analysis panicked: %v", err)
		}
		if err == nil && rep == nil {
			t.Fatal("analysis returned neither report nor error")
		}
		if rep != nil {
			for _, d := range rep.Diagnostics {
				if d.Kind == budget.DiagPanic {
					t.Fatalf("recovered panic in the %s phase at %s: %s", d.Phase, d.Site, d.Detail)
				}
			}
		}
		if _, jerr := opts.Tracer.Export(1, "fuzz").JSON(); jerr != nil {
			t.Fatalf("trace export failed: %v", jerr)
		}
		// The deadline is polled at every loop head, so even a degenerate
		// program cannot hold the pipeline much past it.
		if el := time.Since(start); el > 10*time.Second {
			t.Fatalf("analysis ran %v despite a 500ms deadline", el)
		}
	})
}
