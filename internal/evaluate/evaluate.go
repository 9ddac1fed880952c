// Package evaluate regenerates every table and figure of the paper's
// evaluation (§5) from the corpus: Table 1 (per-app signature coverage),
// Figures 6 and 7 (signature and keyword totals), Table 2 (matched-byte
// fractions), the Radio reddit and TED case studies (Tables 3 and 4), the
// Kayak reverse-engineering study (Tables 5 and 6), the obfuscation
// invariance check, and analysis timing. The cmd/evaluate binary prints
// these; bench_test.go benchmarks them.
package evaluate

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/fuzz"
	"extractocol/internal/obs"
	"extractocol/internal/resultcache"
	"extractocol/internal/siglang"
	"extractocol/internal/trace"
)

// Methods enumerated in Table 1 order.
var Methods = []string{"GET", "POST", "PUT", "DELETE"}

// optionsFor mirrors the paper's configuration: the asynchronous-event
// heuristic is disabled for open-source apps and enabled for closed-source
// apps (§5.1).
func optionsFor(app *corpus.App) core.Options {
	opts := core.NewOptions()
	if app.Spec.OpenSource {
		opts.MaxAsyncHops = 0
	}
	return opts
}

// AppResult bundles everything measured for one corpus app.
type AppResult struct {
	App    *corpus.App
	Report *core.Report
	Manual []trace.Entry
	Auto   []trace.Entry
	// Tracer holds the app's span timeline when RunConfig.Trace was set
	// (export with Tracer.Export, one pid per app); nil otherwise.
	Tracer *obs.Tracer
}

// RunConfig parameterizes a corpus evaluation: worker count plus the
// deadline, faults and telemetry threaded into every app's core.Options.
type RunConfig struct {
	// Workers is the fan-out width (0 means one per CPU, 1 forces serial).
	Workers int
	// Deadline bounds each app's analysis wall time (0 means unlimited).
	Deadline time.Duration
	// Faults injects deterministic failures for robustness testing.
	Faults *budget.FaultInjector
	// Trace records a span timeline per app (see AppResult.Tracer).
	Trace bool
	// CacheDir roots a persistent report cache shared by every app in the
	// run ("" = off): a warm corpus evaluation serves each app's report
	// from disk instead of re-analyzing it.
	CacheDir string
	// Obs attaches every app's collector to a process-wide registry for
	// live /metrics exposition while the corpus runs (see internal/ops);
	// a registry with an event log also streams every app's run, phase,
	// cache and diagnostic events to it.
	Obs *obs.Registry
	// Flight arms the flight recorder for every app (see
	// core.Options.Flight).
	Flight bool
}

// runAppConfig analyzes one app under the config's deadline and runs both
// fuzzing baselines.
func runAppConfig(app *corpus.App, cfg RunConfig) (*AppResult, error) {
	opts := optionsFor(app)
	opts.Deadline = cfg.Deadline
	opts.Faults = cfg.Faults
	opts.Obs = cfg.Obs
	opts.Flight = cfg.Flight
	if cfg.Trace {
		opts.Tracer = obs.NewTracer()
	}
	if cfg.CacheDir != "" {
		cache, err := resultcache.Open(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Spec.Name, err)
		}
		key, err := resultcache.KeyForProgram(app.Prog, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Spec.Name, err)
		}
		opts.Cache = cache
		opts.CacheKey = key
	}
	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app.Spec.Name, err)
	}
	res := &AppResult{App: app, Report: rep, Tracer: opts.Tracer}

	mn := app.NewNetwork()
	if _, err := fuzz.Run(app.Prog, mn, fuzz.Manual); err != nil {
		return nil, err
	}
	res.Manual = trace.FromNetwork(mn.Trace())

	an := app.NewNetwork()
	if _, err := fuzz.Run(app.Prog, an, fuzz.Auto); err != nil {
		return nil, err
	}
	res.Auto = trace.FromNetwork(an.Trace())
	return res, nil
}

// ParallelStats describes one parallel corpus evaluation: the wall-clock
// time of the fan-out, the summed per-app analysis time, and the effective
// speedup (app time / wall time) — the observability layer's own
// measurement of how well per-app parallelism pays off.
type ParallelStats struct {
	Workers  int        `json:"workers"`
	WallNS   int64      `json:"wall_ns"`
	AppNSSum int64      `json:"app_ns_total"`
	SpeedupX float64    `json:"speedup_x"`
	AppsRun  int        `json:"apps"`
	Errors   []AppError `json:"errors,omitempty"`
}

// AppError records one failed app in an aggregated corpus run.
type AppError struct {
	App string `json:"app"`
	Err string `json:"error"`
}

// RunAllConfig evaluates the whole corpus under the config, on cfg.Workers
// workers. Results keep corpus order, so output is byte-identical to a
// serial run. Per-app failures are aggregated instead of aborting the run:
// failed apps are compacted out of the result slice and recorded in
// stats.Errors, so one broken app never discards 33 good reports.
func RunAllConfig(cfg RunConfig) ([]*AppResult, *ParallelStats) {
	results, errs, stats := runAll(cfg)
	apps := corpus.Apps()
	ok := results[:0]
	for i, r := range results {
		if errs[i] != nil {
			stats.Errors = append(stats.Errors, AppError{
				App: apps[i].Spec.Name, Err: errs[i].Error(),
			})
			continue
		}
		ok = append(ok, r)
	}
	// Workers finish in scheduling order; sort so -gen failure output is
	// deterministic across runs and worker counts.
	sort.Slice(stats.Errors, func(i, j int) bool {
		return stats.Errors[i].App < stats.Errors[j].App
	})
	return ok, stats
}

// runAll evaluates the corpus apps on the config's workers: positional
// results and errors in corpus order, regardless of completion order.
func runAll(cfg RunConfig) ([]*AppResult, []error, *ParallelStats) {
	apps := corpus.Apps()
	start := time.Now()
	results := make([]*AppResult, len(apps))
	errs := make([]error, len(apps))
	workers := fanOut(len(apps), cfg.Workers, func(i int) {
		results[i], errs[i] = runAppConfig(apps[i], cfg)
	})

	stats := &ParallelStats{Workers: workers, WallNS: time.Since(start).Nanoseconds(), AppsRun: len(apps)}
	for _, r := range results {
		if r != nil {
			stats.AppNSSum += r.Report.Duration.Nanoseconds()
		}
	}
	if stats.WallNS > 0 {
		stats.SpeedupX = float64(stats.AppNSSum) / float64(stats.WallNS)
	}
	return results, errs, stats
}

// fanOut calls run(i) for every i in [0, n) on at most workers goroutines
// (0 or less means one per CPU; 1 runs them in order on the caller's
// goroutine) and returns the width it used. run writes its result by
// position, so what the caller collects never depends on completion order.
func fanOut(n, workers int, run func(i int)) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return workers
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return workers
}

// CorpusProfile merges every app's per-phase profile into one corpus-wide
// aggregate: total time per pipeline phase and summed workload counters.
func CorpusProfile(results []*AppResult) *obs.Profile {
	agg := &obs.Profile{}
	for _, r := range results {
		agg.Merge(r.Report.Profile)
	}
	return agg
}

// Cell is one Table 1 triple.
type Cell struct{ E, M, A int }

func (c Cell) String() string { return fmt.Sprintf("%d/%d/%d", c.E, c.M, c.A) }

// Table1Row is the measured row for one app.
type Table1Row struct {
	Name       string
	OpenSource bool
	Protocol   string
	ByMethod   map[string]Cell
	Pairs      int
}

// Table1 computes the measured Table 1.
func Table1(results []*AppResult) []Table1Row {
	var rows []Table1Row
	for _, r := range results {
		row := Table1Row{
			Name:       r.App.Spec.Name,
			OpenSource: r.App.Spec.OpenSource,
			Protocol:   r.App.Spec.Protocol,
			ByMethod:   map[string]Cell{},
			Pairs:      r.Report.PairCount(),
		}
		e := r.Report.CountByMethod()
		m := trace.CountByMethod(r.Manual)
		a := trace.CountByMethod(r.Auto)
		for _, method := range Methods {
			if e[method]+m[method]+a[method] > 0 {
				row.ByMethod[method] = Cell{E: e[method], M: m[method], A: a[method]}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable1 renders Table 1 as text.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: signatures identified (Extractocol / manual fuzzing / auto fuzzing)\n")
	fmt.Fprintf(&b, "%-24s %-8s %-12s %-12s %-10s %-10s %6s\n",
		"App", "Proto", "GET", "POST", "PUT", "DELETE", "#Pair")
	for _, grp := range []bool{true, false} {
		if grp {
			b.WriteString("-- open-source --\n")
		} else {
			b.WriteString("-- closed-source --\n")
		}
		for _, r := range rows {
			if r.OpenSource != grp {
				continue
			}
			fmt.Fprintf(&b, "%-24s %-8s %-12s %-12s %-10s %-10s %6d\n",
				r.Name, r.Protocol, cellOrDash(r.ByMethod, "GET"),
				cellOrDash(r.ByMethod, "POST"), cellOrDash(r.ByMethod, "PUT"),
				cellOrDash(r.ByMethod, "DELETE"), r.Pairs)
		}
	}
	return b.String()
}

func cellOrDash(m map[string]Cell, k string) string {
	if c, ok := m[k]; ok {
		return c.String()
	}
	return "-"
}

// Figure6 totals unique signatures per extraction method.
type Figure6Totals struct {
	// URIs, ReqBodies, RespBodies indexed by source: Extractocol,
	// manual fuzzing, auto fuzzing.
	URIs, ReqBodies, RespBodies Cell
}

// Figure6 computes signature totals for one corpus half.
func Figure6(results []*AppResult, openSource bool) Figure6Totals {
	var t Figure6Totals
	for _, r := range results {
		if r.App.Spec.OpenSource != openSource {
			continue
		}
		t.URIs.E += len(r.Report.Transactions)
		reqBodies := 0
		respBodies := 0
		for _, tx := range r.Report.Transactions {
			if tx.Request.BodyKind != "" {
				reqBodies++
			}
			if tx.Response != nil && tx.Response.HasBody() {
				respBodies++
			}
		}
		t.ReqBodies.E += reqBodies
		t.RespBodies.E += respBodies

		t.URIs.M += len(trace.UniqueRoutes(r.Manual))
		t.URIs.A += len(trace.UniqueRoutes(r.Auto))
		mq, mj, mx := countTraceBodies(r.Manual)
		aq, aj, ax := countTraceBodies(r.Auto)
		t.ReqBodies.M += mq
		t.ReqBodies.A += aq
		t.RespBodies.M += mj + mx
		t.RespBodies.A += aj + ax
	}
	return t
}

// countTraceBodies returns (#routes with request bodies, #routes with JSON
// responses, #routes with XML responses).
func countTraceBodies(entries []trace.Entry) (req, jsonResp, xmlResp int) {
	reqR, jsonR, xmlR := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, e := range entries {
		if e.Status >= 400 || e.RouteID == "" {
			continue
		}
		if e.ReqBody != "" {
			reqR[e.RouteID] = true
		}
		switch e.RespType {
		case "json":
			jsonR[e.RouteID] = true
		case "xml":
			xmlR[e.RouteID] = true
		}
	}
	return len(reqR), len(jsonR), len(xmlR)
}

// FormatFigure6 renders both halves.
func FormatFigure6(open, closed Figure6Totals) string {
	var b strings.Builder
	b.WriteString("Figure 6: unique signatures (Extractocol / manual / auto)\n")
	f := func(name string, t Figure6Totals) {
		fmt.Fprintf(&b, "  %-14s URIs %-14s req bodies %-14s resp bodies %s\n",
			name, t.URIs, t.ReqBodies, t.RespBodies)
	}
	f("open-source", open)
	f("closed-source", closed)
	return b.String()
}

// Figure7Totals counts constant protocol keywords per extraction method.
type Figure7Totals struct {
	Request  Cell
	Response Cell
}

// Figure7 counts keywords for one corpus half.
func Figure7(results []*AppResult, openSource bool) Figure7Totals {
	var t Figure7Totals
	for _, r := range results {
		if r.App.Spec.OpenSource != openSource {
			continue
		}
		reqKW := map[string]bool{}
		respKW := map[string]bool{}
		for _, tx := range r.Report.Transactions {
			for _, k := range siglang.Keywords(tx.Request.URI) {
				reqKW[k] = true
			}
			for _, k := range siglang.Keywords(tx.Request.Body) {
				reqKW[k] = true
			}
			if tx.Response == nil {
				continue
			}
			switch tx.Response.BodyKind {
			case "json":
				for _, k := range siglang.Keywords(&siglang.JSON{Root: tx.Response.JSON}) {
					respKW[k] = true
				}
			case "xml":
				for _, k := range siglang.Keywords(&siglang.XML{Root: tx.Response.XML}) {
					respKW[k] = true
				}
			}
		}
		t.Request.E += len(reqKW)
		t.Response.E += len(respKW)
		t.Request.M += len(trace.RequestKeywords(r.Manual))
		t.Request.A += len(trace.RequestKeywords(r.Auto))
		t.Response.M += len(trace.ResponseKeywords(r.Manual))
		t.Response.A += len(trace.ResponseKeywords(r.Auto))
	}
	return t
}

// FormatFigure7 renders both halves.
func FormatFigure7(open, closed Figure7Totals) string {
	var b strings.Builder
	b.WriteString("Figure 7: constant keywords (Extractocol / manual / auto)\n")
	fmt.Fprintf(&b, "  %-14s request %-14s response %s\n", "open-source", open.Request, open.Response)
	fmt.Fprintf(&b, "  %-14s request %-14s response %s\n", "closed-source", closed.Request, closed.Response)
	return b.String()
}

// Table2Stats aggregates matched-byte fractions for one corpus half.
type Table2Stats struct {
	Request  siglang.ByteStats
	Response siglang.ByteStats
}

// Table2 matches every app's signatures against its manual-fuzzing trace
// and aggregates the Rk/Rv/Rn byte fractions.
func Table2(results []*AppResult, openSource bool) Table2Stats {
	var t Table2Stats
	for _, r := range results {
		if r.App.Spec.OpenSource != openSource {
			continue
		}
		m := trace.MatchReport(r.Report, r.Manual)
		t.Request.Add(m.ReqStats)
		t.Response.Add(m.RespStats)
	}
	return t
}

// FormatTable2 renders matched byte fractions as percentages.
func FormatTable2(open, closed Table2Stats) string {
	var b strings.Builder
	b.WriteString("Table 2: matched byte count % (Rk/Rv/Rn)\n")
	p := func(name string, s Table2Stats) {
		rk, rv, rn := s.Request.Fractions()
		qk, qv, qn := s.Response.Fractions()
		fmt.Fprintf(&b, "  %-14s request %2.0f/%2.0f/%2.0f%%   response %2.0f/%2.0f/%2.0f%%\n",
			name, rk*100, rv*100, rn*100, qk*100, qv*100, qn*100)
	}
	p("open-source", open)
	p("closed-source", closed)
	return b.String()
}

// ValiditySummary aggregates signature validity (§5.1): every signature
// with observed traffic must match it.
type ValiditySummary struct {
	Apps            int
	SigsWithTraffic int
	SigsValid       int
	UnmatchedTraces int
	Pairs           int
}

// Validity computes signature-validity totals across the corpus.
func Validity(results []*AppResult) ValiditySummary {
	var v ValiditySummary
	for _, r := range results {
		v.Apps++
		m := trace.MatchReport(r.Report, r.Manual)
		v.SigsWithTraffic += m.SigsWithTraffic
		v.SigsValid += m.SigsValid
		v.UnmatchedTraces += len(m.Unmatched)
		v.Pairs += r.Report.PairCount()
	}
	return v
}

// Timing reports per-app analysis duration, sorted descending, and the
// open/closed averages (the paper: ~4 min open-source, 11 min - 3 h
// closed-source on their hardware; ours run on a simulator substrate, so
// only the relative shape is meaningful).
func Timing(results []*AppResult) string {
	type row struct {
		name string
		ms   int64
		open bool
	}
	var rows []row
	var openSum, closedSum, openN, closedN int64
	for _, r := range results {
		ms := r.Report.Duration.Microseconds()
		rows = append(rows, row{r.App.Spec.Name, ms, r.App.Spec.OpenSource})
		if r.App.Spec.OpenSource {
			openSum += ms
			openN++
		} else {
			closedSum += ms
			closedN++
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	var b strings.Builder
	b.WriteString("Analysis time (per app, microseconds):\n")
	for _, r := range rows {
		kind := "closed"
		if r.open {
			kind = "open"
		}
		fmt.Fprintf(&b, "  %-24s %8dus (%s)\n", r.name, r.ms, kind)
	}
	if openN > 0 && closedN > 0 {
		fmt.Fprintf(&b, "  mean: open-source %dus, closed-source %dus (ratio %.1fx)\n",
			openSum/openN, closedSum/closedN,
			float64(closedSum/closedN)/float64(openSum/openN))
	}
	return b.String()
}
