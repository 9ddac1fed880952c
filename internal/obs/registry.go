// Registry is the process-wide aggregation point of the telemetry plane:
// every live Collector attaches to it for the duration of its run, and the
// registry can render a merged view of completed + in-flight runs at any
// moment in Prometheus text exposition format. This is what the ops
// endpoint (internal/ops) scrapes — the CLI commands mount one registry
// per process, and the future extractocold daemon mounts one per server.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry aggregates collectors across their lifetimes. Attach a
// collector when its run starts and Detach it when the run ends; Gather
// merges the final profiles of completed runs with live snapshots of
// in-flight ones, so a scrape mid-corpus sees both. A registry with an
// event log streams the lifecycle events of every attached collector. A
// nil *Registry is a no-op everywhere, keeping telemetry strictly opt-in.
type Registry struct {
	start time.Time

	mu        sync.Mutex
	log       *EventLog
	live      map[*Collector]bool
	done      *Profile
	started   int64
	completed int64
}

// NewRegistry returns an empty registry; its uptime clock starts now.
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), live: map[*Collector]bool{}, done: &Profile{}}
}

// LogEvents streams the lifecycle events of every collector attached
// afterwards through l (nil stops streaming).
func (r *Registry) LogEvents(l *EventLog) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.log = l
	r.mu.Unlock()
}

// Attach registers a live collector for the named app. The collector's
// snapshots become part of Gather output until Detach, and its events go
// to the registry's log tagged with app.
func (r *Registry) Attach(c *Collector, app string) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	c.ev, c.app = r.log, app
	r.live[c] = true
	r.started++
	r.mu.Unlock()
}

// Detach removes a collector and folds its final snapshot into the
// completed-runs aggregate. Safe to call for a collector that was never
// attached (no-op beyond the merge guard).
func (r *Registry) Detach(c *Collector) {
	if r == nil || c == nil {
		return
	}
	snap := c.Snapshot()
	r.mu.Lock()
	if r.live[c] {
		delete(r.live, c)
		r.completed++
		r.done.Merge(snap)
	}
	r.mu.Unlock()
}

// Gather merges completed-run aggregates with live snapshots into one
// Profile, plus the run lifecycle counts.
func (r *Registry) Gather() (p *Profile, started, completed, live int64) {
	if r == nil {
		return &Profile{}, 0, 0, 0
	}
	r.mu.Lock()
	collectors := make([]*Collector, 0, len(r.live))
	for c := range r.live {
		collectors = append(collectors, c)
	}
	p = &Profile{}
	p.Merge(r.done)
	started, completed, live = r.started, r.completed, int64(len(r.live))
	r.mu.Unlock()
	// Snapshot live collectors outside the registry lock: Snapshot takes
	// each collector's own mutex and may be slow under load.
	for _, c := range collectors {
		p.Merge(c.Snapshot())
	}
	return p, started, completed, live
}

// promCounterVocabulary is the known counter vocabulary, pre-seeded at 0 in
// the exposition output so dashboards and scrape-based tests can rely on
// the series existing before the first increment (a mid-run scrape may land
// before any cache or budget event has fired).
var promCounterVocabulary = []string{
	CtrDPSites, CtrSlicesBackward, CtrSlicesForward,
	CtrTaintFacts, CtrTaintStmts,
	CtrSliceJobs, CtrSliceBusyNS,
	CtrCacheReachableHits, CtrCacheReachableMisses,
	CtrCacheInferTypesHits, CtrCacheInferTypesMisses,
	CtrCacheSummaryHits, CtrCacheSummaryMisses,
	CtrCacheReportHits, CtrCacheReportMisses,
	CtrCacheReportWrites, CtrCacheReportInvalid,
	CtrCacheLockWaitNS, CtrCacheKeyRaces, CtrCacheInstallRetries,
	CtrPairFlowChecks,
	CtrSigbuildJobs, CtrSigbuildBusyNS, CtrSigbuildMethods,
	CtrSigbuildScoped, CtrSigbuildErrors,
	CtrTransactions, CtrDedupFolded,
	CtrTxdepCarriers, CtrTxdepEdges,
	CtrDiagnostics, CtrPanicsRecovered, CtrBudgetExceeded, CtrBudgetSkipped,
}

// promFloat renders a float the way Prometheus clients do: integral values
// without an exponent, everything else in shortest form.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// promSeconds renders nanoseconds as seconds (the Prometheus base unit).
func promSeconds(ns int64) string {
	return promFloat(float64(ns) / 1e9)
}

// WritePrometheus renders the registry's merged view in Prometheus text
// exposition format. Output is deterministic for equal data: metric
// families and series are emitted in sorted order. Histograms whose name
// carries the phase prefix are folded into one
// extractocol_phase_latency_seconds family with a phase label; the rest
// become their own seconds-valued families.
func (r *Registry) WritePrometheus(w *strings.Builder) {
	p, started, completed, live := r.Gather()

	// Process lifecycle.
	w.WriteString("# TYPE extractocol_uptime_seconds gauge\n")
	var up int64
	if r != nil {
		up = time.Since(r.start).Nanoseconds()
	}
	fmt.Fprintf(w, "extractocol_uptime_seconds %s\n", promSeconds(up))
	w.WriteString("# TYPE extractocol_runs_started_total counter\n")
	fmt.Fprintf(w, "extractocol_runs_started_total %d\n", started)
	w.WriteString("# TYPE extractocol_runs_completed_total counter\n")
	fmt.Fprintf(w, "extractocol_runs_completed_total %d\n", completed)
	w.WriteString("# TYPE extractocol_runs_live gauge\n")
	fmt.Fprintf(w, "extractocol_runs_live %d\n", live)

	// Counters: the known vocabulary pre-seeded at 0, plus anything else
	// observed, in one sorted pass.
	counters := map[string]int64{}
	for _, name := range promCounterVocabulary {
		counters[name] = 0
	}
	for k, v := range p.Counters {
		counters[k] += v
	}
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# TYPE extractocol_%s_total counter\n", k)
		fmt.Fprintf(w, "extractocol_%s_total %d\n", k, counters[k])
	}

	// Gauges.
	for _, k := range sortedKeysF(p.Gauges) {
		fmt.Fprintf(w, "# TYPE extractocol_%s gauge\n", k)
		fmt.Fprintf(w, "extractocol_%s %s\n", k, promFloat(p.Gauges[k]))
	}

	// Phase sums as one labeled family.
	if len(p.Phases) > 0 {
		phases := append([]PhaseProfile(nil), p.Phases...)
		sort.Slice(phases, func(i, j int) bool { return phases[i].Name < phases[j].Name })
		w.WriteString("# TYPE extractocol_phase_seconds_total counter\n")
		for _, ph := range phases {
			fmt.Fprintf(w, "extractocol_phase_seconds_total{phase=%q} %s\n", ph.Name, promSeconds(ph.DurationNS))
		}
	}

	// Histograms: phase-prefixed ones share one family keyed by a phase
	// label; the rest get their own <name>_latency_seconds family.
	var phaseHists, otherHists []string
	for _, name := range p.HistNames() {
		if strings.HasPrefix(name, HistPhasePrefix) {
			phaseHists = append(phaseHists, name)
		} else {
			otherHists = append(otherHists, name)
		}
	}
	if len(phaseHists) > 0 {
		w.WriteString("# TYPE extractocol_phase_latency_seconds histogram\n")
		for _, name := range phaseHists {
			writePromHist(w, "extractocol_phase_latency_seconds",
				fmt.Sprintf("phase=%q", strings.TrimPrefix(name, HistPhasePrefix)), p.Hists[name])
		}
	}
	for _, name := range otherHists {
		family := "extractocol_" + name + "_latency_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", family)
		writePromHist(w, family, "", p.Hists[name])
	}
}

// writePromHist emits one histogram series set (buckets, sum, count) with
// an optional extra label.
func writePromHist(w *strings.Builder, family, label string, h *HistSnapshot) {
	sep := ""
	if label != "" {
		sep = ","
	}
	for _, b := range h.Cumulative() {
		le := "+Inf"
		if up := HistBucketUpperNS(b.Idx); up >= 0 {
			le = promSeconds(up)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", family, label, sep, le, b.N)
	}
	if label != "" {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", family, label, promSeconds(h.SumNS))
		fmt.Fprintf(w, "%s_count{%s} %d\n", family, label, h.Count)
	} else {
		fmt.Fprintf(w, "%s_sum %s\n", family, promSeconds(h.SumNS))
		fmt.Fprintf(w, "%s_count %d\n", family, h.Count)
	}
}

// Prometheus renders the exposition document as a string.
func (r *Registry) Prometheus() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

func sortedKeysF(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
