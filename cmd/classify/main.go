// Command classify streams HTTP traffic through an application's message
// signatures — compiled to sigvm bytecode — and reports each signature's
// hit tally plus matcher throughput. It is the traffic-side counterpart of
// extractocol: where that command derives the signatures, this one
// exercises them as a classifier.
//
// Usage:
//
//	classify -app "radio reddit"          classify the app's own recorded
//	                                      manual-fuzz traffic
//	classify -app name -gen 7:5000        classify 5000 seeded labeled
//	                                      entries generated from the app's
//	                                      signatures (reports how many
//	                                      ground-truth labels the matcher
//	                                      reproduced)
//	classify -app name -trace t.jsonl     classify a recorded trace file
//	classify [flags] app.apkb             analyze a binary container
//	                                      instead of a corpus app
//
// Flags:
//
//	-workers n   matcher fan-out (0 or negative = one per CPU, 1 =
//	             serial); chunked merging keeps the output identical at
//	             any width
//	-repeat n    stream the traffic n times (throughput measurement);
//	             n must be at least 1
//	-profile     append the classification profile as JSON: per-entry
//	             latency histogram (p50/p90/p99 quantiles) plus the
//	             analysis phase breakdown of the signature derivation
//	-ops addr    serve the live ops plane on addr (e.g. :9090 or
//	             127.0.0.1:0): /metrics in Prometheus text format,
//	             /healthz, and /debug/pprof/*; the bound address is
//	             printed to stderr
//	-events file write a structured JSONL event stream to this file
//	-list        list corpus applications and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/fuzz"
	"extractocol/internal/obs"
	"extractocol/internal/ops"
	"extractocol/internal/siglang"
	"extractocol/internal/sigvm"
	"extractocol/internal/trace"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.appName, "app", "", "corpus application name (see -list)")
	flag.StringVar(&cfg.gen, "gen", "", "generate labeled traffic, as seed:N (e.g. 7:5000)")
	flag.StringVar(&cfg.traceFile, "trace", "", "classify a recorded trace file (JSON lines)")
	flag.IntVar(&cfg.workers, "workers", 0, "matcher fan-out (0 or negative = one per CPU, 1 = serial)")
	flag.IntVar(&cfg.repeat, "repeat", 1, "stream the traffic this many times (at least 1)")
	flag.BoolVar(&cfg.profile, "profile", false, "append the classification profile as JSON")
	flag.StringVar(&cfg.opsAddr, "ops", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	flag.StringVar(&cfg.eventsFile, "events", "", "write the structured JSONL event stream to this file (empty = off)")
	list := flag.Bool("list", false, "list corpus applications and exit")
	flag.Parse()

	if *list {
		for _, n := range corpus.Names() {
			fmt.Println(n)
		}
		return
	}
	cfg.apkbPath = flag.Arg(0)
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(1)
	}
}

// config carries every flag into run; tests construct it directly.
type config struct {
	appName    string
	apkbPath   string
	gen        string
	traceFile  string
	workers    int
	repeat     int
	profile    bool
	opsAddr    string
	eventsFile string
}

func run(cfg config) (err error) {
	if cfg.repeat < 1 {
		return fmt.Errorf("-repeat wants a positive count, got %d", cfg.repeat)
	}
	tel, err := ops.Open(cfg.opsAddr, cfg.eventsFile)
	if err != nil {
		return err
	}
	defer func() {
		if e := tel.Close(); err == nil {
			err = e
		}
	}()
	rep, app, err := loadReport(cfg, tel.Reg)
	if err != nil {
		return err
	}
	entries, labeled, err := loadTraffic(rep, app, cfg.gen, cfg.traceFile)
	if err != nil {
		return err
	}
	if cfg.repeat > 1 {
		tiled := make([]trace.Entry, 0, len(entries)*cfg.repeat)
		for i := 0; i < cfg.repeat; i++ {
			tiled = append(tiled, entries...)
		}
		entries = tiled
	}
	if len(entries) == 0 {
		return fmt.Errorf("no traffic to classify")
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// The matcher-side collector records per-entry classification latencies
	// (obs.HistClassifyEntry); it feeds both -profile and a live -ops
	// scrape, and is nil — zero clock reads — when neither is on.
	var col *obs.Collector
	if cfg.profile || cfg.opsAddr != "" {
		col = obs.NewCollector()
		tel.Reg.Attach(col, rep.Package)
		defer tel.Reg.Detach(col)
	}

	bundle := sigvm.Compile(rep)
	start := time.Now()
	res := trace.Classify(rep, entries, trace.ClassifyOptions{Bundle: bundle, Workers: workers, Col: col})
	elapsed := time.Since(start)

	printReport(rep, res, labeled, len(entries), elapsed, workers)
	if cfg.profile {
		if err := printProfile(rep, col); err != nil {
			return err
		}
	}
	return nil
}

// printProfile appends the classification profile: the matcher-side
// histogram snapshot (per-entry latency quantiles) plus the analysis-phase
// breakdown of the signature derivation.
func printProfile(rep *core.Report, col *obs.Collector) error {
	doc := struct {
		Package  string       `json:"package"`
		Classify *obs.Profile `json:"classify"`
		Analysis *obs.Profile `json:"analysis,omitempty"`
	}{Package: rep.Package, Classify: col.Snapshot(), Analysis: rep.Profile}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// loadReport resolves the analysis target: a corpus app by name, or an
// .apkb container by path. The signature-derivation analysis carries the
// run's telemetry hooks, so its phases land on a live -ops endpoint too.
func loadReport(cfg config, reg *obs.Registry) (*core.Report, *corpus.App, error) {
	switch {
	case cfg.appName != "" && cfg.apkbPath != "":
		return nil, nil, fmt.Errorf("give either -app or an .apkb path, not both")
	case cfg.appName != "":
		app, err := corpus.ByName(cfg.appName)
		if err != nil {
			return nil, nil, err
		}
		opts := core.NewOptions()
		if app.Spec.OpenSource {
			opts.MaxAsyncHops = 0
		}
		opts.Obs = reg
		rep, err := core.Analyze(app.Prog, opts)
		return rep, app, err
	case cfg.apkbPath != "":
		data, err := os.ReadFile(cfg.apkbPath)
		if err != nil {
			return nil, nil, err
		}
		prog, err := dex.Decode(data)
		if err != nil {
			return nil, nil, err
		}
		opts := core.NewOptions()
		opts.Obs = reg
		rep, err := core.Analyze(prog, opts)
		return rep, nil, err
	default:
		return nil, nil, fmt.Errorf("no application: give -app name or an .apkb path")
	}
}

// loadTraffic resolves the entry stream: seeded labeled generation, a
// recorded trace file, or (default, corpus apps only) a fresh manual fuzz
// session against the app's simulated backend.
func loadTraffic(rep *core.Report, app *corpus.App, gen, traceFile string) ([]trace.Entry, []trace.LabeledEntry, error) {
	switch {
	case gen != "" && traceFile != "":
		return nil, nil, fmt.Errorf("give either -gen or -trace, not both")
	case gen != "":
		seedStr, nStr, ok := strings.Cut(gen, ":")
		if !ok {
			return nil, nil, fmt.Errorf("-gen wants seed:N, got %q", gen)
		}
		seed, err := strconv.ParseUint(seedStr, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("-gen seed: %w", err)
		}
		n, err := strconv.Atoi(nStr)
		if err != nil || n <= 0 {
			return nil, nil, fmt.Errorf("-gen wants a positive entry count, got %q", nStr)
		}
		labeled := trace.RandEntries(seed, rep, n)
		return trace.Entries(labeled), labeled, nil
	case traceFile != "":
		entries, err := trace.Load(traceFile)
		return entries, nil, err
	case app != nil:
		net := app.NewNetwork()
		if _, err := fuzz.Run(app.Prog, net, fuzz.Manual); err != nil {
			return nil, nil, err
		}
		return trace.FromNetwork(net.Trace()), nil, nil
	default:
		return nil, nil, fmt.Errorf("an .apkb target needs -gen or -trace traffic")
	}
}

func printReport(rep *core.Report, res *trace.ClassifyResult, labeled []trace.LabeledEntry,
	total int, elapsed time.Duration, workers int) {
	fmt.Printf("%s: %d signatures, %d entries (%d workers)\n",
		rep.Package, len(res.PerSig), total, workers)
	fmt.Printf("%-6s %-7s %6s %6s  %s\n", "Sig", "Method", "Hits", "Rate", "URI")
	for _, s := range res.PerSig {
		uri := ""
		for _, tx := range rep.Transactions {
			if tx.ID == s.TxID {
				uri = truncate(siglang.RegexBody(tx.Request.URI), 60)
				break
			}
		}
		hitRate := 0.0
		if res.TraceEntries > 0 {
			hitRate = float64(s.Hits) / float64(res.TraceEntries) * 100
		}
		fmt.Printf("#%-5d %-7s %6d %5.1f%%  %s\n", s.TxID, s.Method, s.Hits, hitRate, uri)
	}
	fmt.Printf("matched %d/%d considered entries (%d unmatched, %d skipped)\n",
		res.MatchedEntries, res.TraceEntries, len(res.Unmatched), total-res.TraceEntries)
	if labeled != nil {
		good := 0
		for i, le := range labeled {
			if res.Verdicts[i] == le.WantID {
				good++
			}
		}
		fmt.Printf("ground-truth labels reproduced: %d/%d\n", good, len(labeled))
	}
	fmt.Printf("throughput: %s (%d entries in %v)\n", rate(total, elapsed), total, elapsed.Round(time.Microsecond))
}

func rate(n int, d time.Duration) string {
	return fmt.Sprintf("%.0f entries/sec", float64(n)/d.Seconds())
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
