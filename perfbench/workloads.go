package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/evaluate"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/report"
	"extractocol/internal/resultcache"
	"extractocol/internal/sigvm"
	"extractocol/internal/trace"
)

// Workload sizes. genCount is large enough that the per-app means of
// allocation and latency move by under 5% from one seed's app set to
// another's (200 apps moved them by 7.5%). classifyEntries is the
// labeled traffic drawn per corpus report. acctEntries keeps the
// traced run's standalone trace layer cheap on the workloads whose own
// path does not classify traffic.
const (
	genCount        = 600
	classifyEntries = 2000
	acctEntries     = 200
)

var workloadNames = []string{"corpus-cold", "gen-cold", "warm-reanalyze", "classify"}

// app is one input of a workload: an encoded .apkb container plus the
// references its outputs are checked against.
type app struct {
	name string
	// corpusIdx is the app's position in the paper corpus (the digest's
	// order), -1 for generated apps.
	corpusIdx int
	open      bool // open-source corpus app (§5.1 split)
	apkb      []byte
	truth     map[string]int // Truth.StaticVis: per-method count the analyzer must find

	// classify inputs, prepared during setup.
	rep     *core.Report
	labels  []trace.LabeledEntry
	entries []trace.Entry

	// prof is the profile of a cold core.Analyze of this app made during
	// setup (warm-reanalyze, classify): the traced run checks its
	// layer-by-layer path against it.
	prof *obs.Profile
	// acct holds the labeled entries the traced run classifies when the
	// workload's own path does not; generated on first use, untimed.
	acct []trace.LabeledEntry
}

// result is what one app-level operation produced.
type result struct {
	prog  *ir.Program
	rep   *core.Report
	bytes int // rendered report bytes (text + JSON)
	items int // report transactions, or classified entries
	sigs  int // compiled signatures
	cls   *trace.ClassifyResult
}

// workload is one set of inputs and the operation the closed-loop client
// applies to each of them.
type workload struct {
	name string
	seed uint64
	apps []*app
	// onPath lists the layers the operation itself calls, each timed by
	// its own span; every other layer is timed standalone by the traced
	// run's accounting chain.
	onPath map[string]bool
	// coldCore is set when core.Analyze runs the analysis layers inside
	// the operation (the cold workloads), so its residual excludes them.
	coldCore bool
	op       func(a *app, tr *tracer) (*result, error)
	check    func(a *app, r *result) error
	digest   *digestCheck // nil when no corpus app is in the set
	dir      string       // scratch directory removed by close
	cache    *resultcache.Cache
}

func (w *workload) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// setup builds the named workload's inputs from seed. scratch is a
// directory inside the checkout that this setup may use and close removes.
func setup(name string, seed uint64, root, scratch string) (*workload, error) {
	w := &workload{name: name, seed: seed, dir: scratch}
	switch name {
	case "corpus-cold":
		w.apps = corpusApps()
		w.op, w.check = coldOp, w.checkReport
		w.onPath = layerSet(layerDex, layerCore, layerReport)
		w.coldCore = true
	case "gen-cold":
		w.apps = genApps(seed)
		w.op, w.check = coldOp, w.checkReport
		w.onPath = layerSet(layerDex, layerCore, layerReport)
		w.coldCore = true
	case "warm-reanalyze":
		w.apps = append(corpusApps(), genApps(seed)...)
		w.op, w.check = w.warmOp, w.checkWarm
		w.onPath = layerSet(layerResultcache, layerDex, layerCore, layerReport)
		if err := w.prime(); err != nil {
			return nil, err
		}
	case "classify":
		w.apps = corpusApps()
		w.op, w.check = classifyOp, checkVerdicts
		w.onPath = layerSet(layerSigvm, layerTrace)
		if err := w.prepareTraffic(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for _, a := range w.apps {
		if a.apkb == nil {
			return nil, fmt.Errorf("%s: encode failed", a.name)
		}
	}
	if name == "corpus-cold" || name == "warm-reanalyze" {
		n := 0
		for _, a := range w.apps {
			if a.corpusIdx >= 0 {
				n++
			}
		}
		d, err := loadDigest(root, n)
		if err != nil {
			return nil, err
		}
		w.digest = d
	}
	return w, nil
}

// corpusApps encodes the 34 Table 1 apps to .apkb, in corpus order.
func corpusApps() []*app {
	var out []*app
	for i, a := range corpus.Apps() {
		out = append(out, &app{name: a.Spec.Name, corpusIdx: i, open: a.Spec.OpenSource,
			apkb: encode(a.Prog), truth: a.Truth.StaticVis})
	}
	return out
}

// genApps encodes corpus.Rand(seed, genCount): many small apps spread over
// the seven protocol scenarios.
func genApps(seed uint64) []*app {
	var out []*app
	for _, a := range corpus.Rand(seed, genCount) {
		out = append(out, &app{name: a.Spec.Name, corpusIdx: -1,
			apkb: encode(a.Prog), truth: a.Truth.StaticVis})
	}
	return out
}

func encode(p *ir.Program) []byte {
	b, err := dex.Encode(p)
	if err != nil {
		return nil
	}
	return b
}

// prime fills a fresh report cache with a cold analysis of every app, the
// way the CLI's first -cache run does. Its cost is part of set-up time.
func (w *workload) prime() error {
	c, err := resultcache.Open(filepath.Join(w.dir, "cache"))
	if err != nil {
		return err
	}
	w.cache = c
	for _, a := range w.apps {
		p, err := dex.Decode(a.apkb)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		o := core.NewOptions()
		o.Cache, o.CacheKey = c, resultcache.KeyFor(resultcache.HashBytes(a.apkb), o)
		rep, err := core.Analyze(p, o)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		if rep.Profile.Counter(obs.CtrCacheReportWrites) != 1 {
			return fmt.Errorf("%s: priming did not store a report", a.name)
		}
		a.prof = rep.Profile
	}
	return nil
}

// prepareTraffic analyzes every corpus app and draws its labeled traffic.
func (w *workload) prepareTraffic() error {
	for _, a := range w.apps {
		p, err := dex.Decode(a.apkb)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		rep, err := core.Analyze(p, core.NewOptions())
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		a.rep, a.prof = rep, rep.Profile
		a.labels = trace.RandEntries(w.seed, rep, classifyEntries)
		a.entries = trace.Entries(a.labels)
	}
	return nil
}

// coldOp is the CLI's default path: decode the container, analyze it with
// the default options, render both report formats.
func coldOp(a *app, tr *tracer) (*result, error) {
	tr.begin(layerDex)
	p, err := dex.Decode(a.apkb)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin(layerCore)
	rep, err := core.Analyze(p, core.NewOptions())
	tr.end()
	if err != nil {
		return nil, err
	}
	return render(p, rep, tr)
}

// warmOp is the CLI's -cache path against a primed cache: key the
// container bytes, decode, analyze (served by the cache), render.
func (w *workload) warmOp(a *app, tr *tracer) (*result, error) {
	o := core.NewOptions()
	tr.begin(layerResultcache)
	o.CacheKey = resultcache.KeyFor(resultcache.HashBytes(a.apkb), o)
	tr.end()
	o.Cache = w.cache
	if tr != nil {
		o.Cache = tracedCache{w.cache, tr}
	}
	tr.begin(layerDex)
	p, err := dex.Decode(a.apkb)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin(layerCore)
	rep, err := core.Analyze(p, o)
	tr.end()
	if err != nil {
		return nil, err
	}
	return render(p, rep, tr)
}

func render(p *ir.Program, rep *core.Report, tr *tracer) (*result, error) {
	tr.begin(layerReport)
	text := report.Text(rep)
	js, err := report.JSON(rep)
	tr.end()
	if err != nil {
		return nil, err
	}
	return &result{prog: p, rep: rep, bytes: len(text) + len(js), items: len(rep.Transactions)}, nil
}

// classifyOp is cmd/classify's path for one app's traffic batch: compile
// the signatures, classify the batch with one matcher per CPU.
func classifyOp(a *app, tr *tracer) (*result, error) {
	tr.begin(layerSigvm)
	b := sigvm.Compile(a.rep)
	tr.end()
	tr.begin(layerTrace)
	cls := trace.Classify(a.rep, a.entries, trace.ClassifyOptions{VM: true, Bundle: b, Workers: -1})
	tr.end()
	return &result{rep: a.rep, cls: cls, items: len(a.entries), sigs: b.NumSigs()}, nil
}

// tracedCache times the cache lookup core.Analyze makes as a resultcache
// span nested in the core span. A primed cache is never written to.
type tracedCache struct {
	c  *resultcache.Cache
	tr *tracer
}

func (t tracedCache) Get(key string) (*core.Report, bool, error) {
	t.tr.begin(layerResultcache)
	defer t.tr.end()
	return t.c.Get(key)
}

func (t tracedCache) Put(key string, r *core.Report) error { return t.c.Put(key, r) }

func (t tracedCache) DrainContention() (int64, int64, int64) { return t.c.DrainContention() }

// checkReport holds an analysis report to references that do not come
// from the analyzer: the spec-derived per-method counts of statically
// visible transactions, and for corpus apps the pinned corpus digest.
func (w *workload) checkReport(a *app, r *result) error {
	if r.bytes == 0 {
		return fmt.Errorf("%s: empty rendering", a.name)
	}
	if len(r.rep.Diagnostics) != 0 {
		return fmt.Errorf("%s: %d diagnostics", a.name, len(r.rep.Diagnostics))
	}
	got := r.rep.CountByMethod()
	if len(got) != len(a.truth) {
		return fmt.Errorf("%s: methods %v, truth %v", a.name, got, a.truth)
	}
	for m, n := range a.truth {
		if got[m] != n {
			return fmt.Errorf("%s: methods %v, truth %v", a.name, got, a.truth)
		}
	}
	if a.corpusIdx >= 0 {
		return w.digest.check(a, r.rep)
	}
	return nil
}

func (w *workload) checkWarm(a *app, r *result) error {
	if r.rep.Profile.Counter(obs.CtrCacheReportHits) != 1 {
		return fmt.Errorf("%s: not served by the cache", a.name)
	}
	return w.checkReport(a, r)
}

// checkVerdicts requires every verdict to equal its entry's label, which
// trace.RandEntries derives from the signatures' rendered regexes, not
// from either matcher.
func checkVerdicts(a *app, r *result) error {
	bad := 0
	for i, le := range a.labels {
		if r.cls.Verdicts[i] != le.WantID {
			bad++
		}
	}
	if bad != 0 {
		return fmt.Errorf("%s: %d of %d verdicts differ from their labels", a.name, bad, len(a.labels))
	}
	return nil
}

// digestCheck verifies corpus reports against testdata/report_digest.json:
// the SHA-256 over the canonical reports of all corpus apps in corpus
// order. The first time every corpus app has been seen, the collected
// reports are hashed and compared with the pinned digest; from then on
// each report must equal the verified one for its app. Operations waiting
// for verification count as failed if it fails or never happens.
type digestCheck struct {
	want     string
	canon    [][]byte // canonical report per corpus index, until verified
	seen     int
	pending  int // operations whose verdict waits for the digest
	refs     [][sha256.Size]byte
	verified bool
}

func loadDigest(root string, n int) (*digestCheck, error) {
	data, err := os.ReadFile(filepath.Join(root, "testdata", "report_digest.json"))
	if err != nil {
		return nil, fmt.Errorf("reference digest: %w", err)
	}
	var pin struct {
		Apps   int    `json:"apps"`
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(data, &pin); err != nil {
		return nil, fmt.Errorf("reference digest: %w", err)
	}
	if pin.Apps != n {
		return nil, fmt.Errorf("reference digest pins %d apps, corpus has %d", pin.Apps, n)
	}
	return &digestCheck{want: pin.Digest, canon: make([][]byte, n)}, nil
}

func (d *digestCheck) check(a *app, rep *core.Report) error {
	c, err := evaluate.CanonicalReport(rep)
	if err != nil {
		return err
	}
	if d.verified {
		if sha256.Sum256(c) != d.refs[a.corpusIdx] {
			return fmt.Errorf("%s: report differs from the digest-verified one", a.name)
		}
		return nil
	}
	if d.refs != nil {
		return fmt.Errorf("%s: corpus digest mismatch", a.name)
	}
	if d.canon[a.corpusIdx] == nil {
		d.seen++
	} else if !bytes.Equal(d.canon[a.corpusIdx], c) {
		return fmt.Errorf("%s: report changed between runs", a.name)
	}
	d.canon[a.corpusIdx] = c
	d.pending++
	if d.seen < len(d.canon) {
		return nil
	}
	h := sha256.New()
	d.refs = make([][sha256.Size]byte, len(d.canon))
	for i, c := range d.canon {
		h.Write(c)
		d.refs[i] = sha256.Sum256(c)
	}
	d.canon = nil
	d.verified = hex.EncodeToString(h.Sum(nil)) == d.want
	return nil
}

// late returns the operations failed after the fact: those whose digest
// verification failed, or which never got one because the run ended first.
func (d *digestCheck) late() int {
	if d == nil || d.verified {
		return 0
	}
	return d.pending
}

// openClosedRatio is the §5.1 shape claim on the corpus: the median
// per-app latency of open-source apps over that of closed-source apps.
func openClosedRatio(apps []*app, ms []float64, appOf []int) float64 {
	var open, closed []float64
	for i, v := range ms {
		if apps[appOf[i]].open {
			open = append(open, v)
		} else {
			closed = append(closed, v)
		}
	}
	if len(open) == 0 || len(closed) == 0 {
		return 0
	}
	return median(open) / median(closed)
}
