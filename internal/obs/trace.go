// Span tracing: the second side of the observability layer. Where the
// Collector aggregates per-phase totals, the Tracer keeps every individual
// unit of work as a hierarchical span — run → phase → slice job / sigbuild
// job → taint fixpoint — and exports the result as Chrome trace-event
// JSON, loadable in Perfetto or chrome://tracing.
//
// Concurrency model mirrors the counter shards: hot paths record spans on
// the unsynchronized Shard they already own (no locks, no
// atomics, no allocation beyond the span buffer append), and the
// coordinator flushes them into the Tracer when it drains the shard at
// phase end. Coordinator-side spans (the run and the phases) go through
// the Tracer's mutex directly — they fire a handful of times per analysis.
//
// Everything is nil-safe: with no Tracer attached, Shard.Span is a pointer
// test returning a zero ActiveSpan, so instrumented hot loops cost nothing
// when tracing is off (benchmark-guarded by BenchmarkTracerDisabled).
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Span categories recorded by the pipeline, exported as the "cat" field of
// trace events so Perfetto can filter by pipeline layer.
const (
	// CatRun is the whole-analysis root span (one per Analyze call).
	CatRun = "run"
	// CatPhase marks the coordinator's pipeline stages.
	CatPhase = "phase"
	// CatSliceJob is one (entry point, DP site) slice-extraction job.
	CatSliceJob = "slice"
	// CatSigbuildJob is one signature-construction job.
	CatSigbuildJob = "sigbuild"
	// CatPairFlow is one information-flow pairing verification.
	CatPairFlow = "pairing"
	// CatTaintBackward / CatTaintForward are individual taint fixpoint
	// runs, nested inside the job spans that started them.
	CatTaintBackward = "taint:backward"
	CatTaintForward  = "taint:forward"
)

// GaugeHeapAllocAfter prefixes the per-phase heap gauges recorded when a
// tracer is attached: runtime.ReadMemStats' HeapAlloc, sampled as each
// phase ends, lands in Profile.Gauges under "<prefix><phase>".
const GaugeHeapAllocAfter = "heap_alloc_after_"

// Span is one finished unit of traced work, timed relative to the tracer's
// epoch. TID is the logical track: 0 for the coordinator, one per worker
// shard otherwise.
type Span struct {
	TID   int64
	Cat   string
	Name  string
	Start int64 // ns since the tracer's epoch
	Dur   int64 // ns
}

// spanRec is the in-shard representation of a span: end is filled by
// ActiveSpan.End, and zero (never ended, e.g. a panicking job) clamps to a
// zero-duration span at flush.
type spanRec struct {
	cat, name  string
	start, end int64
}

// ActiveSpan is a started span on a shard. It is a small value — never
// heap-allocated — so starting and ending spans is allocation-free. The
// zero ActiveSpan (tracing and flight recording both disabled) is a no-op.
// idx indexes the shard's span buffer (-1 when untraced); rseq is the
// flight-ring token (0 when the recorder is unarmed).
type ActiveSpan struct {
	s    *Shard
	idx  int
	rseq uint64
}

// End closes the span at the current tracer clock (and in the flight ring
// when armed).
func (a ActiveSpan) End() {
	if a.s == nil {
		return
	}
	if a.idx >= 0 {
		a.s.spans[a.idx].end = a.s.tr.since()
	}
	if a.rseq != 0 {
		a.s.ring.end(a.rseq)
	}
}

// Tracer owns the merged span timeline of one analysis run. All methods
// are safe for concurrent use and nil-safe, so callers thread one through
// optionally exactly like the Collector.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64 // next worker track id (0 is the coordinator)
	spans []Span
}

// NewTracer returns an empty tracer; its clock epoch starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now(), next: 1} }

// since returns the tracer-relative clock in nanoseconds.
func (t *Tracer) since() int64 { return time.Since(t.epoch).Nanoseconds() }

// allocTID reserves a fresh worker track.
func (t *Tracer) allocTID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next
	t.next++
	return id
}

// Span starts a coordinator-side span (track 0) and returns the function
// that ends it. Used for the run and phase levels of the hierarchy; worker
// spans go through Shard.Span instead.
func (t *Tracer) Span(cat, name string) func() {
	if t == nil {
		return func() {}
	}
	start := t.since()
	return func() {
		end := t.since()
		t.mu.Lock()
		t.spans = append(t.spans, Span{Cat: cat, Name: name, Start: start, Dur: end - start})
		t.mu.Unlock()
	}
}

// flush merges a quiescent shard's span buffer into the tracer.
func (t *Tracer) flush(tid int64, recs []spanRec) {
	if t == nil || len(recs) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		end := r.end
		if end < r.start {
			end = r.start
		}
		t.spans = append(t.spans, Span{TID: tid, Cat: r.cat, Name: r.name, Start: r.start, Dur: end - r.start})
	}
}

// Spans returns a copy of the recorded spans, sorted by (start, track,
// name) so output is stable for a fixed set of measurements.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].TID != out[j].TID {
			return out[i].TID < out[j].TID
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TraceEvent is one Chrome trace-event record. Only the subset of the
// format the pipeline emits is modeled: complete events ("X") for spans
// and metadata events ("M") naming processes and threads.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace is a Chrome trace-event document (the JSON object form, which
// Perfetto and chrome://tracing both load).
type Trace struct {
	Events          []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// Merge appends o's events (with their pids) into t — used to combine
// per-app traces of a corpus run into one document with one process per
// app.
func (t *Trace) Merge(o *Trace) {
	if o == nil {
		return
	}
	t.Events = append(t.Events, o.Events...)
	if t.DisplayTimeUnit == "" {
		t.DisplayTimeUnit = o.DisplayTimeUnit
	}
}

// JSON renders the document as indented Chrome trace-event JSON.
func (t *Trace) JSON() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// Export freezes the tracer into a Chrome trace-event document under the
// given process id and name. Track 0 renders as "coordinator"; worker
// shards keep their allocation-order track numbers.
func (t *Tracer) Export(pid int64, process string) *Trace {
	spans := t.Spans()
	out := &Trace{DisplayTimeUnit: "ms"}
	out.Events = append(out.Events, TraceEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": process},
	})
	tids := map[int64]bool{}
	for _, sp := range spans {
		tids[sp.TID] = true
	}
	order := make([]int64, 0, len(tids))
	for tid := range tids {
		order = append(order, tid)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, tid := range order {
		name := "coordinator"
		if tid != 0 {
			name = fmt.Sprintf("worker-%d", tid)
		}
		out.Events = append(out.Events, TraceEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	for _, sp := range spans {
		out.Events = append(out.Events, TraceEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			TS: float64(sp.Start) / 1e3, Dur: float64(sp.Dur) / 1e3,
			PID: pid, TID: sp.TID,
		})
	}
	return out
}
