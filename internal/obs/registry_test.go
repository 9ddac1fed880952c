package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistryGather(t *testing.T) {
	r := NewRegistry()
	a, b := NewCollector(), NewCollector()
	r.Attach(a, "a")
	r.Attach(b, "b")
	a.Add(CtrTransactions, 3)
	b.Add(CtrTransactions, 4)
	a.Observe(HistAnalyze, 1_000)

	if r.Live() != 2 {
		t.Fatalf("Live = %d, want 2", r.Live())
	}
	p, started, completed, live := r.Gather()
	if started != 2 || completed != 0 || live != 2 {
		t.Fatalf("lifecycle = %d/%d/%d, want 2/0/2", started, completed, live)
	}
	if p.Counter(CtrTransactions) != 7 {
		t.Fatalf("live counter merge = %d, want 7", p.Counter(CtrTransactions))
	}

	// Detach folds the final snapshot into the completed aggregate.
	r.Detach(a)
	r.Detach(a) // double detach is a no-op
	p, started, completed, live = r.Gather()
	if started != 2 || completed != 1 || live != 1 {
		t.Fatalf("after detach = %d/%d/%d, want 2/1/1", started, completed, live)
	}
	if p.Counter(CtrTransactions) != 7 {
		t.Fatalf("post-detach counter merge = %d, want 7", p.Counter(CtrTransactions))
	}
	if h := p.Hist(HistAnalyze); h == nil || h.Count != 1 {
		t.Fatalf("detached hist lost: %+v", h)
	}
}

func TestRegistryNilSafety(t *testing.T) {
	var r *Registry
	r.Attach(NewCollector(), "app")
	r.Detach(nil)
	if r.Live() != 0 {
		t.Fatal("nil registry Live should be 0")
	}
	p, _, _, _ := r.Gather()
	if p == nil {
		t.Fatal("nil registry Gather should return an empty profile")
	}
	if out := r.Prometheus(); !strings.Contains(out, "extractocol_runs_live 0") {
		t.Fatalf("nil registry exposition missing lifecycle series:\n%s", out)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := NewCollector()
	r.Attach(c, "app")
	done := c.Phase(PhaseSlice)
	done()
	c.Add(CtrCacheReportHits, 2)
	c.Gauge("slice_workers", 4)
	sh := c.NewShard()
	sh.Observe(HistSliceJob, 5_000)
	c.Drain(sh)

	out := r.Prometheus()
	for _, want := range []string{
		"# TYPE extractocol_uptime_seconds gauge",
		"extractocol_runs_started_total 1",
		"extractocol_runs_live 1",
		"extractocol_cache_report_hits_total 2",
		// Pre-seeded vocabulary: series exist before the first increment.
		"extractocol_budget_exceeded_total 0",
		"extractocol_panics_recovered_total 0",
		"extractocol_slice_workers 4",
		`extractocol_phase_seconds_total{phase="slice"}`,
		"# TYPE extractocol_phase_latency_seconds histogram",
		`extractocol_phase_latency_seconds_bucket{phase="slice",le="+Inf"} 1`,
		`extractocol_phase_latency_seconds_count{phase="slice"} 1`,
		"# TYPE extractocol_slice_job_latency_seconds histogram",
		"extractocol_slice_job_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// Rendering is deterministic for equal data (modulo the uptime line).
	strip := func(s string) string {
		var b strings.Builder
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "extractocol_uptime_seconds ") ||
				strings.HasPrefix(line, "extractocol_phase_seconds_total{") ||
				strings.HasPrefix(line, "extractocol_phase_latency_seconds_sum{") {
				continue
			}
			b.WriteString(line)
			b.WriteString("\n")
		}
		return b.String()
	}
	if strip(out) != strip(r.Prometheus()) {
		t.Fatal("exposition not deterministic across scrapes of identical data")
	}
}

func TestPromFloat(t *testing.T) {
	if got := promFloat(4); got != "4" {
		t.Fatalf("promFloat(4) = %q", got)
	}
	if got := promFloat(0.25); got != "0.25" {
		t.Fatalf("promFloat(0.25) = %q", got)
	}
	if got := promSeconds(1_500_000_000); got != "1.5" {
		t.Fatalf("promSeconds(1.5s) = %q", got)
	}
}

func TestEventLogStream(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	r := NewRegistry()
	r.LogEvents(l)
	silent := NewCollector()
	silent.Event(Event{Type: EvRunStart}) // not attached: no log
	c := NewCollector()
	r.Attach(c, "app1")
	done := c.Phase(PhaseValidate)
	done()
	c.Event(Event{Type: EvCacheHit, Site: "resultcache"})
	c.Event(Event{Type: EvDiagnostic, Site: "slice:job3", Detail: "boom"})
	r.Detach(c)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d events, want 4:\n%s", len(lines), buf.String())
	}
	var prevSeq int64
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if e.Seq != prevSeq+1 {
			t.Fatalf("line %d seq = %d, want %d", i, e.Seq, prevSeq+1)
		}
		prevSeq = e.Seq
		if e.App != "app1" {
			t.Fatalf("line %d app = %q, want app1", i, e.App)
		}
		// Field order is fixed: seq then t_ns then type.
		if !strings.HasPrefix(line, `{"seq":`) || strings.Index(line, `"t_ns"`) > strings.Index(line, `"type"`) {
			t.Fatalf("line %d field order not deterministic: %s", i, line)
		}
	}
	for i, wantType := range []string{EvPhaseStart, EvPhaseEnd, EvCacheHit, EvDiagnostic} {
		var e Event
		_ = json.Unmarshal([]byte(lines[i]), &e)
		if e.Type != wantType {
			t.Fatalf("line %d type = %q, want %q", i, e.Type, wantType)
		}
		if wantType == EvPhaseEnd && e.DurNS <= 0 {
			t.Fatal("phase_end missing duration")
		}
	}

	var nilLog *EventLog
	nilLog.Emit(Event{Type: EvRunStart})
	if nilLog.Close() != nil {
		t.Fatal("nil event log should be a no-op")
	}
}

func TestFlightRing(t *testing.T) {
	c := NewCollector()
	// Off by default, and shards made before arming have no ring.
	c.Phase(PhaseValidate)()
	cold := c.NewShard()
	cold.Span(CatSliceJob, "cold").End()
	if c.FlightDump() != nil || cold.FlightDump() != nil {
		t.Fatal("unarmed collector and shard should have no flight history")
	}
	c.EnableFlight()

	s := c.NewShard()
	sp := s.Span(CatSliceJob, "job-0")
	sp.End()
	s.Span(CatSliceJob, "job-1") // never ended: in-flight marker
	dump := s.FlightDump()
	if len(dump) != 2 {
		t.Fatalf("dump = %v, want 2 records", dump)
	}
	if !strings.Contains(dump[0], "slice job-0") || strings.Contains(dump[0], "…") {
		t.Fatalf("completed record malformed: %q", dump[0])
	}
	if !strings.Contains(dump[1], "…") {
		t.Fatalf("in-flight record should carry the open marker: %q", dump[1])
	}

	// The ring is bounded: only the newest flightDepth records survive, and
	// ends for overwritten slots are dropped.
	old := s.Span(CatSliceJob, "stale")
	for i := 0; i < flightDepth+5; i++ {
		s.Span(CatTaintBackward, "fix").End()
	}
	old.End() // slot already overwritten; must not corrupt a newer record
	dump = s.FlightDump()
	if len(dump) != flightDepth {
		t.Fatalf("dump length = %d, want %d", len(dump), flightDepth)
	}
	for _, line := range dump {
		if strings.Contains(line, "stale") {
			t.Fatalf("overwritten record leaked into dump: %q", line)
		}
		if strings.Contains(line, "…") {
			t.Fatalf("completed record rendered as in-flight: %q", line)
		}
	}

	// Coordinator ring captures phases.
	done := c.Phase(PhaseCallgraph)
	done()
	cdump := c.FlightDump()
	if len(cdump) != 1 || !strings.Contains(cdump[0], "phase callgraph") {
		t.Fatalf("coordinator dump = %v", cdump)
	}

	var nilShard *Shard
	if nilShard.FlightDump() != nil {
		t.Fatal("nil shard dump should be nil")
	}
	var nilCol *Collector
	nilCol.EnableFlight()
	if nilCol.FlightDump() != nil {
		t.Fatal("nil collector flight should be inert")
	}
}

// TestTracedFlightSharesStore arms a tracer and the flight recorder
// together: each track keeps one unbounded store, the dump shows its
// newest flightDepth records (an open span marked "…"), and the export
// holds every span. With a tracer alone, nothing is dumped.
func TestTracedFlightSharesStore(t *testing.T) {
	tr := NewTracer()
	c := NewCollector()
	c.SetTracer(tr)
	c.EnableFlight()
	endRun := c.Span(CatRun, "app")
	c.Phase(PhaseSlice)()
	s := c.NewShard()
	for i := 0; i < flightDepth+3; i++ {
		s.Span(CatTaintBackward, "fix").End()
	}
	s.Span(CatSliceJob, "open")
	dump := s.FlightDump()
	if len(dump) != flightDepth || !strings.HasPrefix(dump[flightDepth-1], "slice open ") ||
		!strings.HasSuffix(dump[flightDepth-1], "…") {
		t.Fatalf("traced shard dump = %d lines, last %q", len(dump), dump[len(dump)-1])
	}
	cdump := c.FlightDump()
	if len(cdump) != 2 || !strings.HasPrefix(cdump[0], "run app ") || !strings.HasSuffix(cdump[0], "…") ||
		!strings.HasPrefix(cdump[1], "phase slice ") {
		t.Fatalf("coordinator dump = %q", cdump)
	}
	endRun.End()
	// process_name, two thread_names, then every span.
	evs := tr.Export(1, "app").Events
	spans := evs[3:]
	if len(spans) != 2+flightDepth+4 {
		t.Fatalf("export holds %d spans, want %d", len(spans), 2+flightDepth+4)
	}
	if spans[0].Cat != CatRun || spans[0].TID != 0 || spans[len(spans)-1].Name != "open" ||
		spans[len(spans)-1].TID != 1 || spans[len(spans)-1].Dur != 0 {
		t.Fatalf("spans out of order: first %+v, last %+v", spans[0], spans[len(spans)-1])
	}

	traceOnly := NewCollector()
	traceOnly.SetTracer(NewTracer())
	us := traceOnly.NewShard()
	us.Span(CatSliceJob, "job").End()
	traceOnly.Phase(PhaseSlice)()
	if us.FlightDump() != nil || traceOnly.FlightDump() != nil {
		t.Fatal("tracer without the flight recorder must not dump")
	}
}
