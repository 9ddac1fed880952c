package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"extractocol/internal/callgraph"
	"extractocol/internal/core"
	"extractocol/internal/dex"
	"extractocol/internal/evaluate"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/pairing"
	"extractocol/internal/report"
	"extractocol/internal/resultcache"
	"extractocol/internal/semmodel"
	"extractocol/internal/sigbuild"
	"extractocol/internal/sigvm"
	"extractocol/internal/slice"
	"extractocol/internal/taint"
	"extractocol/internal/trace"
	"extractocol/internal/txdep"
)

// The layers, named after their modules, in the order core.Analyze and
// the downstream consumers of its report call them.
const (
	layerDex         = "dex"
	layerIR          = "ir"
	layerCallgraph   = "callgraph"
	layerSlice       = "slice"
	layerPairing     = "pairing"
	layerSigbuild    = "sigbuild"
	layerCore        = "core"
	layerTxdep       = "txdep"
	layerReport      = "report"
	layerResultcache = "resultcache"
	layerSigvm       = "sigvm"
	layerTrace       = "trace"
)

var layers = []string{layerDex, layerIR, layerCallgraph, layerSlice, layerPairing,
	layerSigbuild, layerCore, layerTxdep, layerReport, layerResultcache, layerSigvm, layerTrace}

// analysisLayers run inside a cold core.Analyze.
var analysisLayers = []string{layerIR, layerCallgraph, layerSlice, layerPairing, layerSigbuild, layerTxdep}

func layerSet(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// Root span names: an app-level operation as the user runs it, and the
// standalone accounting chain that follows it in a traced pass.
const (
	spanOp   = "op"
	spanAcct = "acct"
)

// span is one timed interval. Spans of one app-level operation share an
// app id; parent is the index of the enclosing span, -1 for a root.
type span struct {
	name   string
	app    int
	parent int
	start  time.Duration // since the tracer was created
	end    time.Duration
	alloc  uint64 // heap bytes allocated while open, children included
}

// tracer keeps the spans of a traced run in memory. Every span is opened
// and closed by the single client goroutine, so it needs no locking. A
// nil *tracer records nothing, which is how untraced runs call the same
// operation code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	app   int
	// stretch lengthens the named layer's spans by this factor by spinning
	// before the span closes; the self-test uses it to plant a slowdown in
	// one layer's timing wrapper.
	stretch map[string]float64
	sample  []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{name: name, app: t.app, parent: parent,
		alloc: t.allocated(), start: time.Since(t.t0)})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	now := time.Since(t.t0)
	if f := t.stretch[s.name]; f > 1 {
		until := s.start + time.Duration(float64(now-s.start)*f)
		for now < until {
			now = time.Since(t.t0)
		}
	}
	s.end = now
	s.alloc = t.allocated() - s.alloc
}

// selfTimes returns each span's duration and allocation minus those of
// its direct children.
func (t *tracer) selfTimes() (self []time.Duration, alloc []int64) {
	self = make([]time.Duration, len(t.spans))
	alloc = make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		alloc[i] += int64(s.alloc)
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
			alloc[s.parent] -= int64(s.alloc)
		}
	}
	return self, alloc
}

// counts are the per-app workload counts a traced pass records at the
// layer boundaries. They depend only on the inputs, so two traced runs of
// one seed report them identically.
type counts struct {
	apkbBytes, reportBytes     int
	txs, pairs, jobsOK, kept   int
	edges, lookups, hits, sigs int
	entries, matched           int
}

func (c *counts) add(o counts) {
	c.apkbBytes += o.apkbBytes
	c.reportBytes += o.reportBytes
	c.txs += o.txs
	c.pairs += o.pairs
	c.jobsOK += o.jobsOK
	c.kept += o.kept
	c.edges += o.edges
	c.lookups += o.lookups
	c.hits += o.hits
	c.sigs += o.sigs
	c.entries += o.entries
	c.matched += o.matched
}

// account follows a traced operation with every layer the operation did
// not time as its own span, each called standalone through its public
// entry point in core.Analyze's order, on the same app. For the cold
// workloads these are the analysis layers hidden inside core.Analyze; for
// the others, the layers their path skips, so that every layer is timed on
// every workload. It fails when the layer-by-layer path disagrees with
// what core.Analyze reported for the app.
func (w *workload) account(a *app, r *result, tr *tracer) (counts, error) {
	var c counts
	opts := core.NewOptions()
	model := semmodel.Default()
	tr.begin(spanAcct)
	defer tr.end()

	run := func(layer string, f func()) {
		if w.onPath[layer] {
			return
		}
		tr.begin(layer)
		f()
		tr.end()
	}
	p := r.prog
	var err error
	run(layerDex, func() { p, err = dex.Decode(a.apkb) })
	if err != nil {
		return c, err
	}
	c.apkbBytes = len(a.apkb)

	run(layerIR, func() { err = p.Validate() })
	if err != nil {
		return c, err
	}
	var cg *callgraph.Graph
	run(layerCallgraph, func() { cg = callgraph.Build(p, model) })
	sums := taint.NewSummaryCache()
	var txs []*slice.Transaction
	run(layerSlice, func() {
		txs = slice.Find(p, model, cg, slice.Options{MaxAsyncHops: opts.MaxAsyncHops,
			IncludeIntents: opts.ModelIntents, Summaries: sums})
	})
	flow := obs.NewCollector()
	var pairs []pairing.Pair
	run(layerPairing, func() {
		pairs = pairing.Analyze(txs)
		shard := flow.NewShard()
		pairing.VerifyFlow(p, model, cg, pairs, shard, sums)
		flow.Drain(shard)
	})
	run(layerSigbuild, func() { c.jobsOK = buildAll(p, model, cg, txs) })
	c.txs = len(txs) // one sigbuild job per transaction
	for _, pr := range pairs {
		if pr.HasResponse {
			c.pairs++
		}
	}

	rep, prof := r.rep, a.prof
	run(layerCore, func() {
		var cold *core.Report
		if cold, err = core.Analyze(p, opts); err == nil {
			prof = cold.Profile
		}
	})
	if err != nil {
		return c, err
	}
	if w.coldCore {
		prof = rep.Profile
	}
	c.kept = len(rep.Transactions)

	var deps []txdep.Dep
	run(layerTxdep, func() {
		dtxs := make([]*txdep.Tx, len(rep.Transactions))
		for i, t := range rep.Transactions {
			dtxs[i] = &txdep.Tx{ID: t.ID, DPID: t.DP, Req: t.Request, Resp: t.Response}
		}
		deps = txdep.Infer(dtxs)
	})
	c.edges = len(deps)

	run(layerReport, func() {
		report.Text(rep)
		_, err = report.JSON(rep)
	})
	if err != nil {
		return c, err
	}
	// Sized without the run-varying duration and profile, so the count
	// repeats exactly.
	canon, err := evaluate.CanonicalReport(rep)
	if err != nil {
		return c, err
	}
	c.reportBytes = len(canon)
	if w.onPath[layerResultcache] {
		c.lookups = 1
		if rep.Profile.Counter(obs.CtrCacheReportHits) == 1 {
			c.hits = 1
		}
	}
	run(layerResultcache, func() {
		resultcache.KeyFor(resultcache.HashBytes(a.apkb), opts)
		var enc []byte
		if enc, err = resultcache.EncodeReport(rep); err == nil {
			_, err = resultcache.DecodeReport(enc)
		}
	})
	if err != nil {
		return c, err
	}

	bundle := (*sigvm.Bundle)(nil)
	run(layerSigvm, func() { bundle = sigvm.Compile(rep) })
	c.sigs = r.sigs
	if bundle != nil {
		c.sigs = bundle.NumSigs()
	}
	cls := r.cls
	if !w.onPath[layerTrace] {
		if a.acct == nil {
			a.acct = trace.RandEntries(w.seed, rep, acctEntries)
		}
		entries := trace.Entries(a.acct)
		run(layerTrace, func() {
			cls = trace.Classify(rep, entries, trace.ClassifyOptions{VM: true, Bundle: bundle, Workers: -1})
		})
	}
	c.entries, c.matched = len(cls.Verdicts), cls.MatchedEntries

	// The layer-by-layer path must reproduce what core.Analyze did.
	switch {
	case int64(c.txs) != prof.Counter(obs.CtrSigbuildJobs):
		return c, fmt.Errorf("%s: slice.Find found %d transactions, core.Analyze built %d",
			a.name, c.txs, prof.Counter(obs.CtrSigbuildJobs))
	case int64(c.jobsOK) != prof.Counter(obs.CtrSigbuildJobs)-prof.Counter(obs.CtrSigbuildErrors):
		return c, fmt.Errorf("%s: sigbuild built %d signatures, core.Analyze %d",
			a.name, c.jobsOK, prof.Counter(obs.CtrSigbuildJobs)-prof.Counter(obs.CtrSigbuildErrors))
	case flow.Snapshot().Counter(obs.CtrPairFlowChecks) != prof.Counter(obs.CtrPairFlowChecks):
		return c, fmt.Errorf("%s: pairing ran %d flow checks, core.Analyze %d",
			a.name, flow.Snapshot().Counter(obs.CtrPairFlowChecks), prof.Counter(obs.CtrPairFlowChecks))
	case int64(c.kept) != prof.Counter(obs.CtrTransactions):
		return c, fmt.Errorf("%s: report has %d transactions, core.Analyze kept %d",
			a.name, c.kept, prof.Counter(obs.CtrTransactions))
	case c.edges != len(rep.Deps):
		return c, fmt.Errorf("%s: txdep.Infer found %d edges, the report has %d", a.name, c.edges, len(rep.Deps))
	}
	return c, nil
}

// buildAll builds every transaction's signatures over the same worker
// fan-out core.Analyze uses (one per CPU) and returns how many succeeded.
func buildAll(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph, txs []*slice.Transaction) int {
	workers := min(runtime.GOMAXPROCS(0), len(txs))
	var next, ok atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(txs) {
					return
				}
				if _, _, err := sigbuild.Build(p, model, cg, txs[j]); err == nil {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(ok.Load())
}
