// Span tracing: the second side of the observability layer. Where the
// Collector aggregates per-phase totals, spans keep every individual unit
// of work — run → phase → slice job / sigbuild job → taint fixpoint — and
// the Tracer exports them as Chrome trace-event JSON, loadable in Perfetto
// or chrome://tracing.
//
// Every track records into one span store: the coordinator's (track 0,
// the run and the phases, behind the collector's mutex) and one per shard
// (jobs and fixpoints, unsynchronized like the shard's counters). The
// store is unbounded and registered with the Tracer when one is attached,
// a flightDepth-deep ring when only the flight recorder is armed (see
// flight.go), and absent otherwise. Export and the flight dumps both read
// it, so a span is written once whichever of them asked for it.
//
// Everything is nil-safe: with no store, Shard.Span is a pointer test
// returning a zero ActiveSpan, so instrumented hot loops cost nothing when
// telemetry is off (held at 0 allocations by the root TestAllocCeilings).
package obs

import (
	"encoding/json"
	"fmt"
	"slices"
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

// spanRec is one recorded span: end stays -1 while the span is open, so a
// flight dump can tell in-flight work (the usual suspect) from completed
// work. Times are relative to the store's epoch: the tracer's when traced
// (the epoch Export's timestamps share), the collector's start otherwise.
type spanRec struct {
	cat, name  string
	start, end int64 // ns since the store's epoch
}

// spanStore is the span history of one track. Pushes are numbered from 1
// (the token ActiveSpan.End hands back); n counts pushes ever. A ring store
// keeps only the newest flightDepth records in place, so recording never
// allocates; an unbounded store appends.
type spanStore struct {
	epoch  time.Time
	tid    int64
	ring   bool
	flight bool // FlightDump renders this store
	n      uint64
	recs   []spanRec
}

// newRing returns a flight-recorder store that keeps the newest
// flightDepth spans.
func newRing(epoch time.Time) *spanStore {
	return &spanStore{epoch: epoch, ring: true, recs: make([]spanRec, flightDepth)}
}

// slot returns the record of push i (0-based).
func (st *spanStore) slot(i uint64) *spanRec {
	if st.ring {
		i %= flightDepth
	}
	return &st.recs[i]
}

// start records an open span and returns its token.
func (st *spanStore) start(cat, name string) uint64 {
	rec := spanRec{cat: cat, name: name, start: time.Since(st.epoch).Nanoseconds(), end: -1}
	if st.ring {
		st.recs[st.n%flightDepth] = rec
	} else {
		st.recs = append(st.recs, rec)
	}
	st.n++
	return st.n
}

// end closes the span with the given token, unless a ring has already
// wrapped past its slot.
func (st *spanStore) end(tok uint64) {
	if st.ring && st.n >= tok+flightDepth {
		return
	}
	st.slot(tok - 1).end = time.Since(st.epoch).Nanoseconds()
}

// ActiveSpan is a started span. It is a small value — never
// heap-allocated — so starting and ending spans is allocation-free. The
// zero ActiveSpan (no span store on the track) is a no-op. mu is the
// collector's mutex for coordinator spans, nil for a shard's.
type ActiveSpan struct {
	st  *spanStore
	tok uint64
	mu  *sync.Mutex
}

// End closes the span at the current store clock.
func (a ActiveSpan) End() {
	if a.mu != nil {
		a.mu.Lock()
		defer a.mu.Unlock()
	}
	if a.st != nil {
		a.st.end(a.tok)
	}
}

// Tracer owns the span tracks of one analysis run: the coordinator track
// and one worker track per shard. All methods are safe for concurrent use
// and nil-safe, so callers thread one through optionally exactly like the
// Collector. The tracks themselves are written without locks by their
// owners, so Export them only after the traced runs return.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	workers int64 // worker tracks allocated (0 is the coordinator's id)
	tracks  []*spanStore
}

// NewTracer returns an empty tracer; its clock epoch starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// track registers an unbounded span store: the coordinator track (0) or a
// fresh worker track.
func (t *Tracer) track(coordinator bool) *spanStore {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &spanStore{epoch: t.epoch}
	if !coordinator {
		t.workers++
		st.tid = t.workers
	}
	t.tracks = append(t.tracks, st)
	return st
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
// shards keep their allocation-order track numbers. Spans are sorted by
// (start, track, name), so output is stable for a fixed set of
// measurements; a span never ended exports with zero duration.
func (t *Tracer) Export(pid int64, process string) *Trace {
	out := &Trace{DisplayTimeUnit: "ms", Events: []TraceEvent{{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": process},
	}}}
	var spans []TraceEvent
	var tids []int64
	if t != nil {
		t.mu.Lock()
		for _, st := range t.tracks {
			if len(st.recs) > 0 && !slices.Contains(tids, st.tid) {
				tids = append(tids, st.tid)
			}
			for _, r := range st.recs {
				spans = append(spans, TraceEvent{
					Name: r.name, Cat: r.cat, Ph: "X",
					TS: float64(r.start) / 1e3, Dur: float64(max(r.end-r.start, 0)) / 1e3,
					PID: pid, TID: st.tid,
				})
			}
		}
		t.mu.Unlock()
	}
	slices.Sort(tids)
	for _, tid := range tids {
		name := "coordinator"
		if tid != 0 {
			name = fmt.Sprintf("worker-%d", tid)
		}
		out.Events = append(out.Events, TraceEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	out.Events = append(out.Events, spans...)
	return out
}
