// Package core orchestrates the Extractocol pipeline (Fig. 2): demarcation
// point identification, bidirectional network-aware slicing, object-aware
// augmentation, signature extraction, HTTP transaction reconstruction
// (request/response pairing), and inter-transaction dependency analysis.
// Its input is a binary container (ir.Program decoded by package dex); its
// output is a complete protocol behavior report.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"extractocol/internal/budget"
	"extractocol/internal/callgraph"
	"extractocol/internal/intern"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/pairing"
	"extractocol/internal/semmodel"
	"extractocol/internal/sigbuild"
	"extractocol/internal/siglang"
	"extractocol/internal/slice"
	"extractocol/internal/taint"
	"extractocol/internal/txdep"
)

// Options configures an analysis run.
type Options struct {
	// MaxAsyncHops bounds asynchronous event-boundary crossings (§3.4).
	// 0 disables the heuristic (the paper's open-source setting); 1 is the
	// paper's closed-source setting and the default used by NewOptions.
	MaxAsyncHops int
	// ScopePrefix, when non-empty, keeps only transactions whose
	// demarcation point lies in a class with this prefix (used in §5.3 to
	// scope Kayak analysis to com.kayak, excluding external libraries).
	ScopePrefix string
	// ModelIntents enables the §4 intent extension: intent-triggered entry
	// points become analysis roots, closing the coverage gap of Table 1's
	// rows where manual fuzzing beats the analyzer.
	ModelIntents bool
	// Model overrides the semantic model; nil uses semmodel.Default().
	Model *semmodel.Model

	// Deadline bounds the wall-clock time of one Analyze call; 0 means
	// unlimited. On exhaustion in-flight loops stop at their next budget
	// check and the report ships with every completed transaction plus
	// diagnostics naming what was dropped.
	Deadline time.Duration
	// Cancel, when non-nil, aborts the analysis cooperatively when closed
	// (same graceful degradation as an exhausted deadline).
	Cancel <-chan struct{}
	// MaxSliceSteps caps cumulative taint-propagation steps across the
	// whole slice phase (a pool drained in job order, so the surviving
	// transactions form a deterministic prefix). 0 = off.
	MaxSliceSteps int64
	// MaxFixpointIters caps the steps of any single fixpoint — one taint
	// worklist run or one signature interpretation. 0 = off.
	MaxFixpointIters int64
	// Faults injects deterministic panics and hangs at pipeline probe
	// points (see budget.FaultInjector); tests only.
	Faults *budget.FaultInjector

	// Tracer, when non-nil, records hierarchical spans (run → phase →
	// per-transaction job → taint fixpoint) on the same shards that carry
	// counters; export with Tracer.Export after Analyze returns.
	// Nil costs nothing on the hot path.
	Tracer *obs.Tracer
	// Explain attaches an Evidence provenance record to every reported
	// transaction (entry point, slice sizes, pairing witness, signature
	// cost). Off by default so reports stay byte-identical.
	Explain bool

	// Obs, when non-nil, attaches this run's collector to a process-wide
	// registry for the duration of the Analyze call, so a live ops endpoint
	// (internal/ops) can scrape in-flight phase latencies and counters.
	// Never affects the report.
	Obs *obs.Registry
	// Events, when non-nil, streams structured lifecycle events — run,
	// phase and job boundaries, cache hits and stores, diagnostics — as
	// JSONL through the shared log. Never affects the report.
	Events *obs.EventLog
	// Flight arms the flight recorder: the newest spans of every shard
	// survive in a bounded ring, and a recovered panic or tripped deadline
	// dumps the shard's ring into the resulting Diagnostic.Flight. Off by
	// default — ring records carry wall-clock offsets, so dumps are opt-in
	// to keep default reports byte-deterministic.
	Flight bool

	// Cache, when non-nil together with a non-empty CacheKey, serves and
	// stores whole reports across Analyze calls: a hit skips every pipeline
	// phase and returns the stored report (Duration and Profile are always
	// recomputed — a warm profile records only the resultcache phase). Only
	// clean runs (no diagnostics) are stored, so degraded or fault-injected
	// reports never poison the cache.
	Cache ReportCache
	// CacheKey is the content address of this (binary, options) pair —
	// compute it with resultcache.KeyFor / resultcache.KeyForProgram after
	// every report-affecting option is set. Empty disables the cache.
	CacheKey string
}

// ReportCache serves complete reports for repeated analyses of the same
// binary + options pair. Implemented by internal/resultcache; declared here
// so core stays independent of the cache's on-disk format.
type ReportCache interface {
	// Get returns (report, true, nil) on a hit, (nil, false, nil) on a
	// miss, and a non-nil error when an entry exists under key but cannot
	// be decoded (corrupt, truncated, wrong format version).
	Get(key string) (*Report, bool, error)
	// Put stores r under key.
	Put(key string, r *Report) error
}

// drainCacheContention folds a report cache's contention gauges into this
// run's profile, when the implementation exposes them (resultcache does:
// parallel workers share one cache per directory, so same-key lock waits,
// races and install retries are observable). The drain is read-and-reset,
// so concurrent runs split the totals instead of double-counting them.
func drainCacheContention(cache ReportCache, col *obs.Collector) {
	d, ok := cache.(interface {
		DrainContention() (lockWaitNS, sameKeyRaces, installRetries int64)
	})
	if !ok {
		return
	}
	wait, races, retries := d.DrainContention()
	if wait != 0 {
		col.Add(obs.CtrCacheLockWaitNS, wait)
	}
	if races != 0 {
		col.Add(obs.CtrCacheKeyRaces, races)
	}
	if retries != 0 {
		col.Add(obs.CtrCacheInstallRetries, retries)
	}
}

// NewOptions returns the default configuration (async heuristic enabled).
func NewOptions() Options { return Options{MaxAsyncHops: 1} }

// newBudget materializes the options' resource envelope, nil when the run
// is unlimited and fault-free (the common case: zero overhead).
func (o Options) newBudget(start time.Time) *budget.Budget {
	if o.Deadline <= 0 && o.Cancel == nil && o.MaxSliceSteps <= 0 &&
		o.MaxFixpointIters <= 0 && o.Faults == nil {
		return nil
	}
	l := budget.Limits{
		Cancel:        o.Cancel,
		SliceSteps:    o.MaxSliceSteps,
		FixpointIters: o.MaxFixpointIters,
	}
	if o.Deadline > 0 {
		l.Deadline = start.Add(o.Deadline)
	}
	return budget.New(l).WithFaults(o.Faults)
}

// errScoped marks transactions excluded by Options.ScopePrefix.
var errScoped = fmt.Errorf("transaction out of scope")

// Transaction is one reconstructed HTTP transaction.
type Transaction struct {
	ID    int
	DP    string // demarcation point "method@index"
	DPRef string // modeled API performing the I/O
	Entry ir.EntryPoint

	Request  *sigbuild.RequestSig
	Response *sigbuild.ResponseSig

	// Paired reports a reconstructed request/response pair whose response
	// body is actually processed by the app.
	Paired bool
	// OneToOne/SharedHandler qualify the pairing (§3.3, Fig. 5);
	// FlowConfirmed means information-flow analysis from the request's
	// disjoint segment reached the response slice.
	OneToOne      bool
	SharedHandler bool
	FlowConfirmed bool

	Sinks   []string
	Sources []string

	// Entries lists every entry point producing this signature when
	// duplicates were folded.
	Entries []string

	// Evidence is the provenance chain behind this transaction (its
	// canonical pre-fold instance); nil unless Options.Explain was set.
	Evidence *Evidence
}

// URIRegex renders the request URI signature as an anchored regex.
func (t *Transaction) URIRegex() string { return siglang.Regex(t.Request.URI) }

// Key is the deduplication identity of the transaction's request. Two
// entry points reaching the same signature fold together; fully dynamic
// URIs ("GET (.*)", TED's transactions #4/#5/#7/#8) carry no distinguishing
// constants, so they remain distinct per demarcation-point site, matching
// how the paper counts them.
func (t *Transaction) Key() string {
	var b strings.Builder
	b.WriteString(t.Request.Method)
	b.WriteString("|")
	uriCanon := siglang.Canon(t.Request.URI)
	b.WriteString(uriCanon)
	if !strings.Contains(uriCanon, `"`) {
		b.WriteString("|")
		b.WriteString(t.DP)
	}
	b.WriteString("|")
	b.WriteString(t.Request.BodyKind)
	b.WriteString("|")
	b.WriteString(siglang.Canon(t.Request.Body))
	return b.String()
}

// Report is the complete analysis output for one application.
type Report struct {
	Package  string
	AppName  string
	Duration time.Duration

	Transactions []*Transaction
	Deps         []txdep.Dep

	// SliceFraction is the fraction of app instructions included in at
	// least one slice (the paper reports 6.3% for Diode).
	SliceFraction float64
	// DPCount is the number of demarcation point sites found.
	DPCount int

	// Profile is the per-phase timing and workload breakdown of this run
	// (validate, callgraph, slice, pairing, sigbuild, dedup, txdep).
	Profile *obs.Profile

	// Diagnostics records every degradation event of the run — skipped
	// jobs, truncated slices, recovered panics, exceeded phases — sorted
	// by (phase, site, detail).
	// Empty for healthy unbudgeted runs.
	Diagnostics []budget.Diagnostic
}

// Evidence is the provenance record behind one reported transaction: where
// the analysis entered, what it sliced, how pairing was confirmed, and what
// signature construction cost. Attached only under Options.Explain; nil
// otherwise, and never rendered by the default report formats.
type Evidence struct {
	// Entry is the entry-point method whose slice produced the transaction,
	// with its lifecycle/event kind and registration label.
	Entry      string `json:"entry"`
	EntryKind  string `json:"entryKind"`
	EntryLabel string `json:"entryLabel,omitempty"`
	// DP is the demarcation point site ("method@index"), DPRef the modeled
	// API performing the network I/O there.
	DP    string `json:"dp"`
	DPRef string `json:"dpRef"`

	// ReqStmts / RespStmts count statements in the final (augmented)
	// request and response slices; ReqSliced / RespSliced are the sizes
	// before object-aware augmentation, so the difference is what
	// augmentation added. ReqMethods / RespMethods count methods touched.
	ReqStmts    int `json:"reqStmts"`
	ReqSliced   int `json:"reqSliced"`
	ReqMethods  int `json:"reqMethods"`
	RespStmts   int `json:"respStmts,omitempty"`
	RespSliced  int `json:"respSliced,omitempty"`
	RespMethods int `json:"respMethods,omitempty"`

	// HeapReads / HeapWrites are the heap locations bridging asynchronous
	// events into and out of the slices (§3.4) — the raw material of
	// inter-transaction dependency edges.
	HeapReads  []string `json:"heapReads,omitempty"`
	HeapWrites []string `json:"heapWrites,omitempty"`

	// FlowSeeds is how many disjoint request statements seeded the Fig. 5
	// pairing flow check; FlowWitness ("method@index") is the smallest
	// response statement the flow reached, empty when unconfirmed.
	FlowSeeds   int    `json:"flowSeeds,omitempty"`
	FlowWitness string `json:"flowWitness,omitempty"`

	// SigMethods counts abstract method interpretations spent building the
	// signature; SigPrePass of the interpreted methods ran outside the
	// entry context to pre-populate the cross-event heap.
	SigMethods int `json:"sigMethods"`
	SigPrePass int `json:"sigPrePass,omitempty"`
}

// Analyze runs the full pipeline over a decoded application binary on the
// calling goroutine. Every stage is bracketed by a phase timer, and
// workload counters flow into the returned Report.Profile via counter
// shards (see internal/obs).
//
// Under a budget (Options.Deadline / step limits / Cancel) the pipeline
// degrades instead of failing: exhausted or panicking work is dropped
// per-transaction, recorded in Report.Diagnostics, and everything that
// completed still ships. A panic outside the recovered per-job scopes is
// converted into an error rather than killing the process.
func Analyze(p *ir.Program, opts Options) (rep *Report, err error) {
	start := time.Now()
	bud := opts.newBudget(start)
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("core: panic during analysis: %v", r)
		}
	}()
	col := obs.NewCollector()
	col.SetTracer(opts.Tracer)
	col.SetEvents(opts.Events, p.Manifest.Package)
	if opts.Flight {
		col.EnableFlight()
	}
	// Live exposition: the collector joins the process registry for the
	// duration of the run, so a concurrent /metrics scrape sees this app's
	// in-flight phases; Detach folds the final snapshot into the
	// completed-runs aggregate (it runs before this function's own deferred
	// recover, after all observations).
	opts.Obs.Attach(col)
	defer opts.Obs.Detach(col)
	col.Event(obs.Event{Type: obs.EvRunStart})
	defer func() {
		col.Event(obs.Event{Type: obs.EvRunEnd, DurNS: time.Since(start).Nanoseconds()})
	}()
	// The run span brackets the whole pipeline on the coordinator track;
	// nil-safe and free when tracing is off.
	endRun := opts.Tracer.Span(obs.CatRun, p.Manifest.Package)
	defer endRun()
	model := opts.Model
	if model == nil {
		model = semmodel.Default()
	}

	// diags accumulates degradation events (sorted before report assembly);
	// counting happens here (not in the phases) so each event is tallied
	// exactly once.
	var diags []budget.Diagnostic
	note := func(ds ...budget.Diagnostic) {
		for _, d := range ds {
			diags = append(diags, d)
			col.Add(obs.CtrDiagnostics, 1)
			col.Event(obs.Event{Type: obs.EvDiagnostic, Phase: d.Phase,
				Site: d.Site, Detail: d.Kind + ": " + d.Detail})
			switch d.Kind {
			case budget.DiagPanic:
				col.Add(obs.CtrPanicsRecovered, 1)
			case budget.DiagBudget:
				col.Add(obs.CtrBudgetExceeded, 1)
			case budget.DiagSkipped:
				col.Add(obs.CtrBudgetSkipped, 1)
			}
		}
	}

	// Warm path: a cache hit replaces the entire pipeline, so repeated
	// analyses of the same binary under the same options cost one disk read
	// and one decode. The lookup is bracketed by its own phase so -profile
	// and -trace distinguish warm from cold runs; an unusable entry (corrupt,
	// truncated, wrong format version) degrades to a full recompute with a
	// typed diagnostic, never an error or a wrong report.
	if opts.Cache != nil && opts.CacheKey != "" {
		endCache := col.Phase(obs.PhaseResultCache)
		cached, hit, cerr := opts.Cache.Get(opts.CacheKey)
		endCache()
		drainCacheContention(opts.Cache, col)
		switch {
		case hit:
			col.Add(obs.CtrCacheReportHits, 1)
			col.Event(obs.Event{Type: obs.EvCacheHit, Site: opts.CacheKey})
			cached.Duration = time.Since(start)
			col.Observe(obs.HistAnalyze, cached.Duration.Nanoseconds())
			cached.Profile = col.Snapshot()
			return cached, nil
		case cerr != nil:
			col.Add(obs.CtrCacheReportInvalid, 1)
			note(budget.CacheDiag(opts.CacheKey, cerr.Error()))
		default:
			col.Add(obs.CtrCacheReportMisses, 1)
		}
	}

	endValidate := col.Phase(obs.PhaseValidate)
	bud.MaybePanic(budget.PhaseValidate, p.Manifest.Package)
	verr := p.Validate()
	endValidate()
	if verr != nil {
		return nil, fmt.Errorf("core: invalid program: %w", verr)
	}

	endCallgraph := col.Phase(obs.PhaseCallgraph)
	cg := callgraph.Build(p, model)
	endCallgraph()

	// The per-program analysis cache: taint transfer summaries shared by
	// the slice jobs and the pairing flow checks (reachability and type
	// memoization live on the call graph itself).
	sums := taint.NewSummaryCache()

	endSlice := col.Phase(obs.PhaseSlice)
	txs, sliceDiags := slice.FindBudgeted(p, model, cg, slice.Options{
		MaxAsyncHops:   opts.MaxAsyncHops,
		IncludeIntents: opts.ModelIntents,
		Col:            col,
		Summaries:      sums,
		Budget:         bud,
	})
	note(sliceDiags...)
	endSlice()

	endPairing := col.Phase(obs.PhasePairing)
	pairStats := col.NewShard()
	pairs := pairing.Analyze(txs)
	note(pairing.VerifyFlowBudgeted(p, model, cg, pairs, pairStats, sums, bud)...)
	col.Drain(pairStats)
	pairByTx := map[*slice.Transaction]pairing.Pair{}
	for _, pr := range pairs {
		pairByTx[pr.Tx] = pr
	}
	endPairing()

	results := buildSignatures(p, model, cg, txs, opts, col, bud)
	for _, r := range results {
		var rec *budget.Recovered
		var ex *budget.Exceeded
		switch {
		case errors.As(r.err, &rec):
			d := budget.PanicDiag(rec.Phase, rec.Site, rec.Value)
			d.Flight = r.flight
			note(d)
		case errors.As(r.err, &ex):
			d := budget.ExceededDiag(ex)
			d.Flight = r.flight
			note(d)
		}
	}

	endDedup := col.Phase(obs.PhaseDedup)
	sliceStmts := &intern.Bits{}
	out := foldTransactions(txs, results, pairByTx, sliceStmts, col, opts.Explain)
	dpSites := map[string]bool{}
	for _, tx := range txs {
		dpSites[fmt.Sprintf("%s@%d", tx.DP.Method, tx.DP.Index)] = true
	}
	col.Add(obs.CtrDPSites, int64(len(dpSites)))
	endDedup()

	// Inter-transaction dependencies on the deduplicated set. The phase is
	// skipped on an exhausted budget and panic-isolated like the jobs:
	// a report without dependency edges beats no report.
	endTxdep := col.Phase(obs.PhaseTxdep)
	var deps []txdep.Dep
	func() {
		defer func() {
			if r := recover(); r != nil {
				deps = nil
				d := budget.PanicDiag(budget.PhaseTxdep, p.Manifest.Package, r)
				d.Flight = col.FlightDump()
				note(d)
			}
		}()
		if ex := bud.Over(budget.PhaseTxdep, p.Manifest.Package); ex != nil {
			note(budget.ExceededDiag(ex))
			return
		}
		bud.MaybePanic(budget.PhaseTxdep, p.Manifest.Package)
		var dtxs []*txdep.Tx
		for _, t := range out {
			dtxs = append(dtxs, &txdep.Tx{ID: t.ID, DPID: t.DP, Req: t.Request, Resp: t.Response})
		}
		txdepStats := col.NewShard()
		deps = txdep.InferObs(dtxs, txdepStats)
		col.Drain(txdepStats)
	}()
	endTxdep()

	total := p.InstrCount()
	frac := 0.0
	if total > 0 {
		frac = float64(sliceStmts.Count()) / float64(total)
	}

	// Fold the analysis-cache hit/miss totals into the profile.
	cg.DrainCacheCounters(col)
	sums.DrainCounters(col)

	rep = &Report{
		Package:       p.Manifest.Package,
		AppName:       p.Manifest.AppName,
		Transactions:  out,
		Deps:          deps,
		SliceFraction: frac,
		DPCount:       len(dpSites),
	}

	// Store clean cold runs back into the cache. Degraded runs (any
	// analysis diagnostic) are never stored: a deadline-truncated report
	// reflects this machine's clock, not the binary, and must not be served
	// later as if it were complete. Cache-phase diagnostics don't count —
	// a corrupt entry degrades only the lookup, and the recompute it forced
	// is exactly the report that should repair the entry. Duration and
	// Profile are excluded from the encoding, so the order (store, then
	// snapshot) loses nothing.
	clean := true
	for _, d := range diags {
		if d.Phase != budget.PhaseCache {
			clean = false
			break
		}
	}
	if opts.Cache != nil && opts.CacheKey != "" && clean {
		endCache := col.Phase(obs.PhaseResultCache)
		perr := opts.Cache.Put(opts.CacheKey, rep)
		endCache()
		drainCacheContention(opts.Cache, col)
		if perr != nil {
			col.Add(obs.CtrCacheReportInvalid, 1)
			note(budget.CacheDiag(opts.CacheKey, "store failed: "+perr.Error()))
		} else {
			col.Add(obs.CtrCacheReportWrites, 1)
			col.Event(obs.Event{Type: obs.EvCacheStore, Site: opts.CacheKey})
		}
	}

	// The report lists diagnostics by (phase, site, detail), not in the
	// order the phases noted them.
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Detail < b.Detail
	})

	rep.Duration = time.Since(start)
	col.Observe(obs.HistAnalyze, rep.Duration.Nanoseconds())
	rep.Diagnostics = diags
	rep.Profile = col.Snapshot()
	return rep, nil
}

// built is one sigbuild result, positionally aligned with the transaction
// list.
type built struct {
	req  *sigbuild.RequestSig
	resp *sigbuild.ResponseSig
	info sigbuild.BuildInfo
	err  error
	// flight is the sigbuild shard's span history captured at the moment
	// err was produced by a recovered panic or tripped budget; nil unless
	// the flight recorder was armed.
	flight []string
}

// buildSignatures runs signature extraction for every transaction, in
// transaction order, on one counter shard drained at the end of the phase.
func buildSignatures(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph,
	txs []*slice.Transaction, opts Options, col *obs.Collector, bud *budget.Budget) []built {

	endSigbuild := col.Phase(obs.PhaseSigbuild)
	defer endSigbuild()
	stats := col.NewShard()
	results := make([]built, len(txs))
	for i, tx := range txs {
		if opts.ScopePrefix != "" && !strings.HasPrefix(tx.DP.Method, opts.ScopePrefix) {
			results[i] = built{err: errScoped}
			stats.Add(obs.CtrSigbuildScoped, 1)
			continue
		}
		results[i] = buildOne(p, model, cg, tx, stats, bud)
	}
	col.Drain(stats)
	return results
}

// buildOne builds one transaction's signatures. A panicking interpretation
// costs one transaction, not the run: Analyze converts the error into a
// diagnostic, carrying the shard's flight history when armed.
func buildOne(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph,
	tx *slice.Transaction, stats *obs.Shard, bud *budget.Budget) (b built) {

	site := fmt.Sprintf("%s@%d", tx.DP.Method, tx.DP.Index)
	defer func() {
		if r := recover(); r != nil {
			b = built{err: &budget.Recovered{
				Phase: budget.PhaseSigbuild, Site: site, Value: r},
				flight: stats.FlightDump()}
			stats.Add(obs.CtrSigbuildErrors, 1)
		}
	}()
	if ex := bud.Over(budget.PhaseSigbuild, site); ex != nil {
		stats.Add(obs.CtrSigbuildErrors, 1)
		return built{err: ex, flight: stats.FlightDump()}
	}
	sp := stats.Span(obs.CatSigbuildJob, site)
	defer sp.End()
	t0 := time.Now()
	r, rs, info, err := sigbuild.BuildTraced(p, model, cg, tx, stats, bud)
	ns := time.Since(t0).Nanoseconds()
	stats.Add(obs.CtrSigbuildJobs, 1)
	stats.Add(obs.CtrSigbuildBusyNS, ns)
	stats.Observe(obs.HistSigbuildJob, ns)
	if err != nil {
		stats.Add(obs.CtrSigbuildErrors, 1)
	}
	return built{req: r, resp: rs, info: info, err: err}
}

// foldTransactions converts sigbuild results into deduplicated report
// transactions: entry points reaching the same signature fold together,
// merging their Entries, Sinks and Sources (all kept sorted so folded
// transactions render deterministically regardless of slice discovery
// order). sliceStmts accumulates every statement covered by a kept slice
// (a dense set over the program index — all slices of one run share it);
// col (optional) receives dedup counters. explain attaches an Evidence
// record to each kept transaction (the canonical pre-fold instance; later
// folds merge entries but keep the first instance's evidence).
func foldTransactions(txs []*slice.Transaction, results []built,
	pairByTx map[*slice.Transaction]pairing.Pair,
	sliceStmts *intern.Bits, col *obs.Collector, explain bool) []*Transaction {

	var out []*Transaction
	dedup := map[string]*Transaction{}
	folded := 0
	for i, tx := range txs {
		req, resp, err := results[i].req, results[i].resp, results[i].err
		if err != nil {
			// Scoped out, or a DP unreachable under abstract evaluation
			// (e.g. dead branch): skip rather than abort the whole app.
			continue
		}
		sliceStmts.Union(tx.Request.Stmts())
		if tx.Response != nil {
			sliceStmts.Union(tx.Response.Stmts())
		}
		pr := pairByTx[tx]
		t := &Transaction{
			DP:            fmt.Sprintf("%s@%d", tx.DP.Method, tx.DP.Index),
			DPRef:         tx.DPRef,
			Entry:         tx.Entry,
			Request:       req,
			Response:      resp,
			Paired:        resp.HasBody(),
			OneToOne:      pr.OneToOne,
			SharedHandler: pr.SharedHandler,
			FlowConfirmed: pr.FlowConfirmed,
			Sinks:         sortedSet(tx.Sinks),
			Sources:       sortedSet(tx.Sources),
			Entries:       []string{tx.Entry.Method},
		}
		if explain {
			ev := &Evidence{
				Entry:      tx.Entry.Method,
				EntryKind:  tx.Entry.Kind.String(),
				EntryLabel: tx.Entry.Label,
				DP:         t.DP,
				DPRef:      tx.DPRef,
				ReqStmts:   tx.Request.Size(),
				ReqSliced:  tx.ReqStmtsSliced,
				ReqMethods: len(tx.Request.Methods()),
				HeapReads:  tx.Request.HeapReads(),
				FlowSeeds:  pr.FlowSeeds,
				SigMethods: results[i].info.MethodsEvaluated,
				SigPrePass: results[i].info.PrePassMethods,
			}
			if tx.Response != nil {
				ev.RespStmts = tx.Response.Size()
				ev.RespSliced = tx.RespStmtsSliced
				ev.RespMethods = len(tx.Response.Methods())
				ev.HeapWrites = tx.Response.HeapWrites()
			}
			if pr.FlowConfirmed {
				ev.FlowWitness = fmt.Sprintf("%s@%d",
					pr.FlowWitness.Method, pr.FlowWitness.Index)
			}
			t.Evidence = ev
		}
		key := t.Key()
		if prev, ok := dedup[key]; ok {
			mergeStringSets(&prev.Entries, t.Entries)
			prev.Paired = prev.Paired || t.Paired
			mergeStringSets(&prev.Sinks, t.Sinks)
			mergeStringSets(&prev.Sources, t.Sources)
			folded++
			continue
		}
		t.ID = len(out) + 1
		dedup[key] = t
		out = append(out, t)
	}
	col.Add(obs.CtrTransactions, int64(len(out)))
	col.Add(obs.CtrDedupFolded, int64(folded))
	return out
}

// CountByMethod tallies unique request signatures per HTTP method.
func (r *Report) CountByMethod() map[string]int {
	out := map[string]int{}
	for _, t := range r.Transactions {
		out[t.Request.Method]++
	}
	return out
}

// BodyKindCounts tallies transactions by body representation: request
// query strings, JSON bodies (either side), XML bodies (either side).
func (r *Report) BodyKindCounts() (query, json, xml int) {
	for _, t := range r.Transactions {
		if t.Request.BodyKind == "query" {
			query++
		}
		if t.Request.BodyKind == "json" || (t.Response != nil && t.Response.BodyKind == "json" && t.Response.HasBody()) {
			json++
		}
		if t.Request.BodyKind == "xml" || (t.Response != nil && t.Response.BodyKind == "xml" && t.Response.HasBody()) {
			xml++
		}
	}
	return
}

// PairCount returns the number of reconstructed request/response pairs
// whose response body is processed by the app.
func (r *Report) PairCount() int {
	n := 0
	for _, t := range r.Transactions {
		if t.Paired {
			n++
		}
	}
	return n
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mergeStringSets inserts each element of add into the sorted set *dst in
// place (binary search + insertion), avoiding the map rebuild and full
// re-sort the previous implementation paid on every fold. *dst must already
// be sorted, which sortedSet and prior merges guarantee.
func mergeStringSets(dst *[]string, add []string) {
	for _, s := range add {
		i := sort.SearchStrings(*dst, s)
		if i < len(*dst) && (*dst)[i] == s {
			continue
		}
		*dst = append(*dst, "")
		copy((*dst)[i+1:], (*dst)[i:])
		(*dst)[i] = s
	}
}
