// Command extractocol analyzes an Android application binary (.apkb
// container) and reports its protocol behavior: reconstructed HTTP
// transactions, message signatures, request/response pairs and
// inter-transaction dependencies.
//
// Usage:
//
//	extractocol [flags] app.apkb
//
// Flags:
//
//	-format text|json|dot|disasm   output format (default text)
//	-scope prefix           only analyze transactions whose demarcation
//	                        point lies in classes with this prefix
//	-async-hops n           asynchronous-event hops (0 disables the §3.4
//	                        heuristic; default 1)
//	-profile                append the per-phase observability breakdown
//	                        (phase durations, workload counters, latency
//	                        histograms with p50/p90/p99 quantiles) as
//	                        indented JSON
//	-deadline d             bound analysis wall time (e.g. 30s); what
//	                        exceeds it is dropped and reported in the
//	                        diagnostics section instead of hanging
//	-slice-budget n         cap cumulative slicing steps (0 = unlimited)
//	-fixpoint-budget n      cap taint fixpoint iterations (0 = unlimited)
//	-trace file             write a Chrome trace-event JSON timeline of the
//	                        run (load in Perfetto / chrome://tracing): one
//	                        span per phase, per-transaction job, and taint
//	                        fixpoint, on one track per phase
//	-explain                append the provenance chain of every
//	                        transaction (entry point, slice sizes, pairing
//	                        witness, signature cost, dependency origins)
//	-cache dir              persistent report cache: re-analyzing an
//	                        unchanged binary with unchanged options serves
//	                        the stored report instead of recomputing
//	-security               annotate transactions with the security lens:
//	                        cleartext-HTTP transport plus credential- and
//	                        PII-shaped request field keys (text and json
//	                        formats; rendered only when non-empty)
//	-ops addr               serve the live ops plane on addr (e.g. :9090 or
//	                        127.0.0.1:0): /metrics in Prometheus text
//	                        format, /healthz, and /debug/pprof/*; the bound
//	                        address is printed to stderr
//	-events file            write a structured JSONL event stream (run,
//	                        phase, cache and diagnostic events with
//	                        monotonic sequence numbers) to this file
//	-flight                 arm the crash flight recorder: on a recovered
//	                        panic or tripped deadline the diagnostic
//	                        carries the most recent spans of its track,
//	                        ending with the job that died
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"extractocol/internal/core"
	"extractocol/internal/dex"
	"extractocol/internal/obs"
	"extractocol/internal/ops"
	"extractocol/internal/report"
	"extractocol/internal/resultcache"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.format, "format", "text", "output format: text, json, dot or disasm")
	flag.StringVar(&cfg.scope, "scope", "", "class prefix to scope the analysis to")
	flag.IntVar(&cfg.hops, "async-hops", 1, "asynchronous event hops (0 disables the heuristic)")
	flag.BoolVar(&cfg.profile, "profile", false, "append the per-phase profile as JSON")
	flag.DurationVar(&cfg.deadline, "deadline", 0, "analysis deadline (0 = unlimited)")
	flag.Int64Var(&cfg.sliceSteps, "slice-budget", 0, "cumulative slice step budget (0 = unlimited)")
	flag.Int64Var(&cfg.fixIters, "fixpoint-budget", 0, "taint fixpoint iteration budget (0 = unlimited)")
	flag.StringVar(&cfg.traceFile, "trace", "", "write a Chrome trace-event JSON timeline to this file")
	flag.BoolVar(&cfg.explain, "explain", false, "append per-transaction provenance chains")
	flag.StringVar(&cfg.cacheDir, "cache", "", "persistent report cache directory (empty = off)")
	flag.BoolVar(&cfg.security, "security", false, "annotate transactions with the security lens")
	flag.StringVar(&cfg.opsAddr, "ops", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	flag.StringVar(&cfg.eventsFile, "events", "", "write the structured JSONL event stream to this file (empty = off)")
	flag.BoolVar(&cfg.flight, "flight", false, "arm the crash flight recorder (recent-span dumps in diagnostics)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: extractocol [flags] app.apkb")
		flag.PrintDefaults()
		os.Exit(2)
	}
	cfg.path = flag.Arg(0)
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "extractocol:", err)
		os.Exit(1)
	}
}

// config carries every flag into run; tests construct it directly.
type config struct {
	path       string
	format     string
	scope      string
	hops       int
	profile    bool
	explain    bool
	security   bool
	traceFile  string
	cacheDir   string
	deadline   time.Duration
	sliceSteps int64
	fixIters   int64
	opsAddr    string
	eventsFile string
	flight     bool
}

func run(cfg config) (err error) {
	// Check the flags before any work: an unknown format found after the
	// analysis would leave a cache entry behind, and a negative budget,
	// hop count or deadline would silently act as 0.
	switch {
	case cfg.format != "text" && cfg.format != "json" && cfg.format != "dot" && cfg.format != "disasm":
		return fmt.Errorf("unknown format %q (want text, json, dot or disasm)", cfg.format)
	case cfg.hops < 0:
		return errors.New("-async-hops must not be negative")
	case cfg.sliceSteps < 0:
		return errors.New("-slice-budget must not be negative")
	case cfg.fixIters < 0:
		return errors.New("-fixpoint-budget must not be negative")
	case cfg.deadline < 0:
		return errors.New("-deadline must not be negative")
	}
	data, err := os.ReadFile(cfg.path)
	if err != nil {
		return err
	}
	prog, err := dex.Decode(data)
	if err != nil {
		return err
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
	opts := core.NewOptions()
	opts.MaxAsyncHops = cfg.hops
	opts.ScopePrefix = cfg.scope
	opts.Deadline = cfg.deadline
	opts.MaxSliceSteps = cfg.sliceSteps
	opts.MaxFixpointIters = cfg.fixIters
	opts.Explain = cfg.explain
	opts.Obs = tel.Reg
	opts.Flight = cfg.flight
	if cfg.traceFile != "" {
		opts.Tracer = obs.NewTracer()
	}
	if cfg.cacheDir != "" {
		cache, err := resultcache.Open(cfg.cacheDir)
		if err != nil {
			return err
		}
		opts.Cache = cache
		// KeyFor folds in every report-affecting option, so it must run
		// after the options above are final.
		opts.CacheKey = resultcache.KeyFor(resultcache.HashBytes(data), opts)
	}
	rep, err := core.Analyze(prog, opts)
	if err != nil {
		return err
	}
	ropts := report.Options{Security: cfg.security}
	switch cfg.format {
	case "json":
		data, err := report.JSONOpts(rep, ropts)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	case "dot":
		fmt.Print(report.DOT(rep))
	case "disasm":
		fmt.Print(prog.Disassemble())
	default:
		fmt.Print(report.TextOpts(rep, ropts))
	}
	if cfg.profile {
		data, err := report.ProfileJSON(rep)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	}
	if cfg.explain {
		if cfg.format == "json" {
			data, err := report.ExplainJSON(rep)
			if err != nil {
				return err
			}
			fmt.Println(string(data))
		} else {
			fmt.Print(report.ExplainText(rep))
		}
	}
	if cfg.traceFile != "" {
		data, err := opts.Tracer.Export(1, rep.Package).JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.traceFile, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
