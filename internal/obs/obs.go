// Package obs is the pipeline observability layer: lightweight phase
// timers, monotonic counters and gauges threaded through the Extractocol
// pipeline. The evaluation (§5, Table 2) reports per-app analysis time;
// this package breaks that single number into per-phase durations and
// workload counters so every later performance change (sharding, batching,
// caching) has a measurement substrate to build on.
//
// Concurrency model: a Collector owns the merged view and takes a mutex on
// every mutation; hot paths (taint worklists, sigbuild jobs) never touch it
// directly. Instead each phase records into an unsynchronized Shard owned
// by one goroutine, and the coordinator drains the shard into the
// collector at phase end — no locks or atomics on the hot path, and no
// per-increment allocation (map assignment of an existing key does not
// allocate).
package obs

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// Phase names of the core.Analyze pipeline, in execution order.
const (
	PhaseValidate  = "validate"
	PhaseCallgraph = "callgraph"
	PhaseSlice     = "slice"
	PhasePairing   = "pairing"
	PhaseSigbuild  = "sigbuild"
	PhaseDedup     = "dedup"
	PhaseTxdep     = "txdep"
	// PhaseResultCache brackets persistent report-cache lookups and stores
	// (see internal/resultcache); it is the only phase a warm run records.
	PhaseResultCache = "resultcache"
)

// Counter names recorded by the pipeline.
const (
	// CtrDPSites is the number of distinct demarcation point sites found.
	CtrDPSites = "dp_sites"
	// CtrSlicesBackward / CtrSlicesForward count computed request and
	// response slices.
	CtrSlicesBackward = "slices_backward"
	CtrSlicesForward  = "slices_forward"
	// CtrTaintFacts counts worklist facts processed by the taint engine;
	// CtrTaintStmts counts statements added to slices.
	CtrTaintFacts = "taint_facts"
	CtrTaintStmts = "taint_stmts"
	// CtrSliceJobs counts (entry point, DP site) extraction jobs run;
	// CtrSliceBusyNS accumulates the time spent inside them.
	CtrSliceJobs   = "slice_jobs"
	CtrSliceBusyNS = "slice_busy_ns"
	// Analysis-cache hit/miss counters: memoized per-entry-point
	// reachability, per-method type inference, and per-(method, register)
	// taint transfer summaries (see callgraph and taint).
	CtrCacheReachableHits    = "cache_reachable_hits"
	CtrCacheReachableMisses  = "cache_reachable_misses"
	CtrCacheInferTypesHits   = "cache_infertypes_hits"
	CtrCacheInferTypesMisses = "cache_infertypes_misses"
	CtrCacheSummaryHits      = "cache_summaries_hits"
	CtrCacheSummaryMisses    = "cache_summaries_misses"
	// Persistent report-cache counters (internal/resultcache): whole-report
	// hits and misses keyed by (binary hash, options fingerprint), entries
	// written back after cold runs, and entries found but unusable
	// (corrupt, truncated, wrong format version).
	CtrCacheReportHits    = "cache_report_hits"
	CtrCacheReportMisses  = "cache_report_misses"
	CtrCacheReportWrites  = "cache_report_writes"
	CtrCacheReportInvalid = "cache_report_invalid"
	// Report-cache contention gauges, drained from the shared cache after
	// each Get/Put: nanoseconds spent blocked on per-key locks, contended
	// same-key acquisitions, and atomic-install rename retries. All zero
	// unless parallel workers actually race on the cache.
	CtrCacheLockWaitNS     = "cache_lock_wait_ns"
	CtrCacheKeyRaces       = "cache_key_races"
	CtrCacheInstallRetries = "cache_install_retries"
	// CtrPairFlowChecks counts information-flow pairing verifications run.
	CtrPairFlowChecks = "pairing_flow_checks"
	// CtrSigbuildJobs counts signature-extraction jobs executed;
	// CtrSigbuildBusyNS accumulates the time spent inside them.
	// CtrSigbuildMethods counts methods abstractly interpreted.
	// Scoped/errored jobs are broken out.
	CtrSigbuildJobs    = "sigbuild_jobs"
	CtrSigbuildBusyNS  = "sigbuild_busy_ns"
	CtrSigbuildMethods = "sigbuild_methods_evaluated"
	CtrSigbuildScoped  = "sigbuild_scoped_out"
	CtrSigbuildErrors  = "sigbuild_errors"
	// CtrTransactions / CtrDedupFolded count deduplicated output
	// transactions and the duplicates folded into them.
	CtrTransactions = "transactions"
	CtrDedupFolded  = "dedup_folded"
	// CtrTxdepCarriers / CtrTxdepEdges count carrier heap locations indexed
	// and dependency edges inferred.
	CtrTxdepCarriers = "txdep_carriers"
	CtrTxdepEdges    = "txdep_edges"
	// Degradation counters (see internal/budget): CtrDiagnostics totals all
	// diagnostics on the report, broken out into recovered worker panics,
	// budget-truncated work, and jobs skipped at an exhausted boundary.
	// Unbudgeted, fault-free runs record none of these.
	CtrDiagnostics     = "diagnostics"
	CtrPanicsRecovered = "panics_recovered"
	CtrBudgetExceeded  = "budget_exceeded"
	CtrBudgetSkipped   = "budget_jobs_skipped"
)

// Collector accumulates phases, counters and gauges for one analysis run.
// All methods are safe for concurrent use; a nil *Collector is a no-op so
// callers may thread one through optionally.
type Collector struct {
	start time.Time

	// tr, when non-nil, registers the coordinator track and every shard
	// handed out afterwards with a tracer (see trace.go), and samples the
	// heap at each phase end. Set once before the pipeline starts; nil
	// keeps tracing strictly zero-cost.
	tr *Tracer

	// ev/app, set by Registry.Attach when the registry carries an event
	// log, stream lifecycle events (phase start/end here, run, cache and
	// diagnostic events from core) tagged with the app under analysis (see
	// events.go).
	ev  *EventLog
	app string

	mu sync.Mutex
	// spans is the coordinator track (see trace.go); nil when neither a
	// tracer nor the flight recorder is attached.
	spans *spanStore
	// order lists phase names in first-start order; each phase's duration
	// is the sum of its HistPhasePrefix histogram.
	order    []string
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Hist
}

// NewCollector returns an empty collector; its total clock starts now.
func NewCollector() *Collector {
	return &Collector{
		start:    time.Now(),
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*Hist{},
	}
}

// SetTracer attaches a span tracer: the coordinator track and shards
// created afterwards record into tracer tracks, and each phase end samples
// a ReadMemStats heap gauge. A nil tracer (the default) is free.
func (c *Collector) SetTracer(tr *Tracer) {
	if c == nil || tr == nil {
		return
	}
	c.mu.Lock()
	c.tr = tr
	c.spans = c.newStore(true)
	c.mu.Unlock()
}

// newStore returns a span store for the coordinator track or a new shard:
// unbounded and registered with the tracer when one is attached, a flight
// ring when only the recorder is armed (EnableFlight marks the coordinator
// store), nil otherwise. Callers hold c.mu.
func (c *Collector) newStore(coordinator bool) *spanStore {
	flight := c.spans != nil && c.spans.flight
	var st *spanStore
	switch {
	case c.tr != nil:
		st = c.tr.track(coordinator)
	case flight:
		st = newRing(c.start)
	default:
		return nil
	}
	st.flight = flight
	return st
}

// Event emits one event through the collector's log (no-op when none is
// attached), filling the App field when the caller left it empty.
func (c *Collector) Event(e Event) {
	if c == nil || c.ev == nil {
		return
	}
	if e.App == "" {
		e.App = c.app
	}
	c.ev.Emit(e)
}

// Span starts a span on the coordinator track: the run span, and each
// phase through Phase. Worker spans go through Shard.Span instead. With
// no coordinator store (or a nil collector) it returns the zero
// ActiveSpan.
func (c *Collector) Span(cat, name string) ActiveSpan {
	if c == nil {
		return ActiveSpan{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.span(cat, name)
}

// span is Span with c.mu held.
func (c *Collector) span(cat, name string) ActiveSpan {
	if c.spans == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{st: c.spans, tok: c.spans.start(cat, name), mu: &c.mu}
}

// Phase starts timing the named phase and returns the function that stops
// it. The duration is one observation of the phase's HistPhasePrefix
// histogram, so re-entering a phase name accumulates into the same
// Profile entry. The phase is also a coordinator span when a tracer or the
// flight recorder is attached, and with a tracer the post-phase heap size
// lands in the GaugeHeapAllocAfter gauges.
func (c *Collector) Phase(name string) func() {
	if c == nil {
		return func() {}
	}
	t0 := time.Now()
	c.mu.Lock()
	if !slices.Contains(c.order, name) {
		c.order = append(c.order, name)
	}
	sp := c.span(CatPhase, name)
	c.mu.Unlock()
	c.Event(Event{Type: EvPhaseStart, Phase: name})
	return func() {
		ns := time.Since(t0).Nanoseconds()
		c.Observe(HistPhasePrefix+name, ns)
		sp.End()
		c.Event(Event{Type: EvPhaseEnd, Phase: name, DurNS: ns})
		if c.tr != nil {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			c.Gauge(GaugeHeapAllocAfter+name, float64(ms.HeapAlloc))
		}
	}
}

// Add increments the named counter by delta.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Gauge sets the named gauge.
func (c *Collector) Gauge(name string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gauges[name] = v
	c.mu.Unlock()
}

// Observe records one nanosecond measurement into the named histogram.
// Coordinator-path equivalent of Shard.Observe; takes the collector mutex.
func (c *Collector) Observe(name string, ns int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	h := c.hists[name]
	if h == nil {
		h = &Hist{}
		c.hists[name] = h
	}
	h.Observe(ns)
	c.mu.Unlock()
}

// NewShard returns an unsynchronized counter shard. The shard must be
// owned by exactly one goroutine until it is passed to Drain. When a
// tracer is attached the shard records on a fresh tracer track, so the
// owning worker's spans render on their own row; with only the flight
// recorder armed it keeps a flight ring.
func (c *Collector) NewShard() *Shard {
	s := &Shard{counts: map[string]int64{}}
	if c == nil {
		return s
	}
	c.mu.Lock()
	s.spans = c.newStore(false)
	c.mu.Unlock()
	return s
}

// Drain merges a shard's counts and histograms into the collector and
// resets them. The shard's owner must have stopped writing (e.g. after
// wg.Wait). Its spans stay on its track.
func (c *Collector) Drain(s *Shard) {
	if c == nil || s == nil {
		return
	}
	c.mu.Lock()
	for k, v := range s.counts {
		c.counters[k] += v
	}
	for k, sh := range s.hists {
		h := c.hists[k]
		if h == nil {
			h = &Hist{}
			c.hists[k] = h
		}
		h.merge(sh)
	}
	c.mu.Unlock()
	s.counts = map[string]int64{}
	s.hists = nil
}

// Shard is a single-goroutine counter and span buffer: no locks, no
// atomics. A nil *Shard is a no-op, so instrumented code never needs to
// branch on configuration.
type Shard struct {
	counts map[string]int64

	// hists holds the shard's latency histograms, allocated lazily on the
	// first Observe of each name; steady-state Observe is map-lookup plus
	// Hist.Observe, with no allocation.
	hists map[string]*Hist

	// spans is the shard's track (see trace.go); nil (the default for
	// standalone shards and collectors with neither a tracer nor the
	// flight recorder) makes Span a no-op.
	spans *spanStore
}

// Span starts a worker span on this shard's track. With no track (or a
// nil shard) it returns the zero ActiveSpan and performs no allocation, so
// hot loops may call it unconditionally.
func (s *Shard) Span(cat, name string) ActiveSpan {
	if s == nil || s.spans == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{st: s.spans, tok: s.spans.start(cat, name)}
}

// Add increments the named counter by delta.
func (s *Shard) Add(name string, delta int64) {
	if s == nil {
		return
	}
	s.counts[name] += delta
}

// Observe records one nanosecond measurement into the shard's named
// histogram. Unsynchronized like Add: only the owning goroutine may call
// it. After the first observation of a name, subsequent ones allocate
// nothing (pinned by TestHistogramDisabledZeroAlloc and
// BenchmarkHistogramRecord).
func (s *Shard) Observe(name string, ns int64) {
	if s == nil {
		return
	}
	h := s.hists[name]
	if h == nil {
		if s.hists == nil {
			s.hists = map[string]*Hist{}
		}
		h = &Hist{}
		s.hists[name] = h
	}
	h.Observe(ns)
}

// PhaseProfile is one timed pipeline stage.
type PhaseProfile struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// Profile is an immutable snapshot of a collector: the per-phase breakdown
// plus all counters and gauges. It is embedded in core.Report and rendered
// by the report package and the -profile CLI flags.
type Profile struct {
	TotalNS  int64                    `json:"total_ns"`
	Phases   []PhaseProfile           `json:"phases"`
	Counters map[string]int64         `json:"counters,omitempty"`
	Gauges   map[string]float64       `json:"gauges,omitempty"`
	Hists    map[string]*HistSnapshot `json:"hists,omitempty"`
}

// Snapshot freezes the collector into a Profile. Phases appear in first-
// start order; counters and gauges are copied.
func (c *Collector) Snapshot() *Profile {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &Profile{TotalNS: time.Since(c.start).Nanoseconds()}
	for _, name := range c.order {
		if h := c.hists[HistPhasePrefix+name]; h != nil {
			p.Phases = append(p.Phases, PhaseProfile{Name: name, DurationNS: h.sum})
		}
	}
	if len(c.counters) > 0 {
		p.Counters = make(map[string]int64, len(c.counters))
		for k, v := range c.counters {
			p.Counters[k] = v
		}
	}
	if len(c.gauges) > 0 {
		p.Gauges = make(map[string]float64, len(c.gauges))
		for k, v := range c.gauges {
			p.Gauges[k] = v
		}
	}
	if len(c.hists) > 0 {
		p.Hists = make(map[string]*HistSnapshot, len(c.hists))
		for k, h := range c.hists {
			p.Hists[k] = h.snapshot()
		}
	}
	return p
}

// Counter returns the recorded value of the named counter (0 if absent).
func (p *Profile) Counter(name string) int64 {
	if p == nil {
		return 0
	}
	return p.Counters[name]
}

// HistNames returns all histogram names, sorted.
func (p *Profile) HistNames() []string {
	if p == nil {
		return nil
	}
	out := make([]string, 0, len(p.Hists))
	for k := range p.Hists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merge accumulates o into p: phase durations and counters add, gauges
// average weighted by total time, totals add. Used to aggregate per-app
// profiles into a corpus-wide view.
func (p *Profile) Merge(o *Profile) {
	if p == nil || o == nil {
		return
	}
	for _, ph := range o.Phases {
		found := false
		for i := range p.Phases {
			if p.Phases[i].Name == ph.Name {
				p.Phases[i].DurationNS += ph.DurationNS
				found = true
				break
			}
		}
		if !found {
			p.Phases = append(p.Phases, ph)
		}
	}
	for k, v := range o.Counters {
		if p.Counters == nil {
			p.Counters = map[string]int64{}
		}
		p.Counters[k] += v
	}
	for k, v := range o.Gauges {
		if p.Gauges == nil {
			p.Gauges = map[string]float64{}
		}
		if pt, ot := float64(p.TotalNS), float64(o.TotalNS); pt+ot > 0 {
			p.Gauges[k] = (p.Gauges[k]*pt + v*ot) / (pt + ot)
		} else {
			p.Gauges[k] = v
		}
	}
	for k, oh := range o.Hists {
		if p.Hists == nil {
			p.Hists = map[string]*HistSnapshot{}
		}
		h := p.Hists[k]
		if h == nil {
			h = &HistSnapshot{}
			p.Hists[k] = h
		}
		h.Merge(oh)
	}
	p.TotalNS += o.TotalNS
}
