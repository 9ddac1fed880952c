// Command evaluate regenerates the paper's evaluation artifacts from the
// corpus: Tables 1-6 and Figures 6-7 of "Enabling Automatic Protocol
// Behavior Analysis for Android Applications" (CoNEXT 2016), plus the
// obfuscation-invariance check, the asynchronous-heuristic ablation, and
// analysis timing.
//
// Usage:
//
//	evaluate                     run everything
//	evaluate -only table1        one artifact (table1, table2, table3,
//	                             table4, table5, table6, figure6, figure7,
//	                             validity, obfuscation, ablation, timing,
//	                             slicefraction); any other name is an error
//	evaluate -profile            emit per-app and corpus-wide per-phase
//	                             observability breakdowns as JSON, plus
//	                             the parallel fan-out speedup and, when a
//	                             shared report cache is in use, its
//	                             contention gauges (lock-wait time,
//	                             same-key races, install retries)
//	evaluate -serial             analyze apps one at a time instead of in
//	                             parallel
//	evaluate -deadline 30s       bound each app's analysis; apps that
//	                             exceed it ship degraded reports with
//	                             diagnostics, and apps that fail outright
//	                             are reported on stderr without aborting
//	                             the rest of the corpus
//	evaluate -trace corpus.json  write one Chrome trace-event JSON timeline
//	                             covering every corpus app (one process
//	                             track per app; load in Perfetto)
//	evaluate -cache dir          persistent report cache shared by all
//	                             corpus apps; a warm re-evaluation serves
//	                             every unchanged app's report from disk
//	evaluate -gen 1729:500       differential-testing harness: generate a
//	                             500-app corpus from seed 1729 and assert
//	                             byte-identical reports across the four
//	                             equivalence axes (same-seed regeneration,
//	                             serial/parallel, cold/warm cache,
//	                             budgeted/unbudgeted); exits nonzero on any
//	                             mismatch. Combines only with -ops, -events
//	                             and -deadline (the budgeted axis' limit)
//	evaluate -ops addr           serve the live ops plane on addr (e.g.
//	                             :9090 or 127.0.0.1:0): /metrics in
//	                             Prometheus text format, /healthz, and
//	                             /debug/pprof/*; the bound address is
//	                             printed to stderr; composes with every
//	                             mode including -gen, so a long
//	                             differential run can be watched live
//	evaluate -events file        write a structured JSONL event stream
//	                             (run, phase, cache and diagnostic events
//	                             with monotonic sequence numbers) to file
//	evaluate -flight             arm the crash flight recorder: panic and
//	                             deadline diagnostics carry the most recent
//	                             spans of the failed job's track
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"extractocol/internal/evaluate"
	"extractocol/internal/obs"
	"extractocol/internal/ops"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.only, "only", "", "single artifact to produce: "+strings.Join(artifacts, ", "))
	flag.BoolVar(&cfg.profile, "profile", false, "emit per-phase observability JSON")
	flag.BoolVar(&cfg.serial, "serial", false, "disable per-app parallelism")
	flag.DurationVar(&cfg.deadline, "deadline", 0, "per-app analysis deadline (0 = unlimited)")
	flag.StringVar(&cfg.traceFile, "trace", "", "write a corpus-wide Chrome trace-event JSON timeline to this file")
	flag.StringVar(&cfg.cacheDir, "cache", "", "persistent report cache directory (empty = off)")
	flag.StringVar(&cfg.gen, "gen", "", "run the differential harness over a generated corpus, as seed:N (e.g. 1729:500); combines only with -deadline, -ops and -events")
	flag.StringVar(&cfg.opsAddr, "ops", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	flag.StringVar(&cfg.eventsFile, "events", "", "write the structured JSONL event stream to this file (empty = off)")
	flag.BoolVar(&cfg.flight, "flight", false, "arm the crash flight recorder (recent-span dumps in diagnostics)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

// artifacts names every value -only accepts, in output order.
var artifacts = []string{
	"table1", "figure6", "figure7", "table2", "validity", "table3", "table4",
	"table5", "table6", "obfuscation", "ablation", "timing", "slicefraction",
}

// config carries every flag into run; tests construct it directly.
type config struct {
	only       string
	profile    bool
	serial     bool
	deadline   time.Duration
	traceFile  string
	cacheDir   string
	gen        string
	opsAddr    string
	eventsFile string
	flight     bool
}

func run(cfg config) (err error) {
	if cfg.only != "" && !slices.Contains(artifacts, cfg.only) {
		return fmt.Errorf("-only %q is not an artifact; want one of %s", cfg.only, strings.Join(artifacts, ", "))
	}
	if cfg.gen != "" {
		// The differential harness honours only -deadline, -ops and
		// -events: refuse the artifact flags before any work instead of
		// silently ignoring them.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-trace", cfg.traceFile != ""}, {"-flight", cfg.flight},
			{"-profile", cfg.profile}, {"-cache", cfg.cacheDir != ""},
			{"-serial", cfg.serial}, {"-only", cfg.only != ""},
		} {
			if f.set {
				return fmt.Errorf("%s cannot be combined with -gen", f.name)
			}
		}
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
	if cfg.gen != "" {
		return runDifferential(cfg, tel.Reg)
	}
	return runArtifacts(cfg, tel.Reg)
}

// runDifferential parses "seed:N" and runs the differential-testing
// harness; any cross-axis mismatch is an error (nonzero exit).
func runDifferential(cfg config, reg *obs.Registry) error {
	seedStr, nStr, ok := strings.Cut(cfg.gen, ":")
	if !ok {
		return fmt.Errorf("-gen wants seed:N, got %q", cfg.gen)
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return fmt.Errorf("-gen seed: %w", err)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 {
		return fmt.Errorf("-gen wants a positive app count, got %q", nStr)
	}
	res, err := evaluate.RunDifferential(evaluate.DiffConfig{
		Seed: seed, N: n, BudgetDeadline: cfg.deadline, Obs: reg,
	})
	if err != nil {
		return err
	}
	fmt.Print(evaluate.FormatDifferential(res))
	if m := res.Mismatches(); m > 0 {
		return fmt.Errorf("%d differential mismatches", m)
	}
	return nil
}

func runArtifacts(cfg config, reg *obs.Registry) error {
	only := cfg.only
	want := func(name string) bool { return only == "" || only == name }

	var results []*evaluate.AppResult
	var pstats *evaluate.ParallelStats
	needCorpus := only == "" || only == "table1" || only == "table2" ||
		only == "figure6" || only == "figure7" || only == "validity" || only == "timing"
	if needCorpus || cfg.profile || cfg.traceFile != "" {
		rcfg := evaluate.RunConfig{
			Deadline: cfg.deadline, Trace: cfg.traceFile != "", CacheDir: cfg.cacheDir,
			Obs: reg, Flight: cfg.flight,
		}
		if cfg.serial {
			rcfg.Workers = 1
		}
		results, pstats = evaluate.RunAllConfig(rcfg)
		// Per-app failures degrade the corpus run instead of aborting it:
		// name them on stderr and evaluate whatever completed.
		for _, ae := range pstats.Errors {
			fmt.Fprintf(os.Stderr, "evaluate: %s failed: %s\n", ae.App, ae.Err)
		}
	}

	if cfg.profile {
		if err := printProfiles(results, pstats); err != nil {
			return err
		}
	}
	if cfg.traceFile != "" {
		if err := writeCorpusTrace(cfg.traceFile, results); err != nil {
			return err
		}
	}

	if want("table1") {
		fmt.Println(evaluate.FormatTable1(evaluate.Table1(results)))
	}
	if want("figure6") {
		fmt.Println(evaluate.FormatFigure6(
			evaluate.Figure6(results, true), evaluate.Figure6(results, false)))
	}
	if want("figure7") {
		fmt.Println(evaluate.FormatFigure7(
			evaluate.Figure7(results, true), evaluate.Figure7(results, false)))
	}
	if want("table2") {
		fmt.Println(evaluate.FormatTable2(
			evaluate.Table2(results, true), evaluate.Table2(results, false)))
	}
	if want("validity") {
		v := evaluate.Validity(results)
		fmt.Printf("Signature validity: %d/%d signatures with traffic matched; %d pairs reconstructed; %d unmatched traces\n\n",
			v.SigsValid, v.SigsWithTraffic, v.Pairs, v.UnmatchedTraces)
	}
	if want("table3") {
		out, err := evaluate.Table3()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("table4") {
		out, err := evaluate.Table4()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("table5") {
		rows, rep, err := evaluate.Table5()
		if err != nil {
			return err
		}
		fmt.Println(evaluate.FormatTable5(rows, rep))
	}
	if want("table6") {
		out, err := evaluate.Table6()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("obfuscation") {
		identical, total, err := evaluate.ObfuscationCheck()
		if err != nil {
			return err
		}
		fmt.Printf("Obfuscation check: %d/%d open-source apps yield identical signatures after ProGuard-style renaming\n\n",
			identical, total)
	}
	if want("ablation") {
		disabled, enabled, err := evaluate.AsyncHeuristicAblation()
		if err != nil {
			return err
		}
		fmt.Printf("Async-event heuristic ablation (Weather Notification): %d request keywords disabled, %d enabled\n\n",
			disabled, enabled)
	}
	if want("timing") {
		fmt.Println(evaluate.Timing(results))
	}
	if want("slicefraction") {
		frac, err := evaluate.DiodeSliceFraction()
		if err != nil {
			return err
		}
		fmt.Printf("Diode slice fraction (Fig. 3): %.1f%% of app instructions\n", frac*100)
	}
	return nil
}

// printProfiles emits the observability view of a corpus evaluation: one
// per-phase breakdown per app, the corpus-wide aggregate, and the parallel
// fan-out statistics, as one indented JSON document.
func printProfiles(results []*evaluate.AppResult, pstats *evaluate.ParallelStats) error {
	type appProfile struct {
		App        string       `json:"app"`
		DurationMS int64        `json:"duration_ms"`
		Profile    *obs.Profile `json:"profile"`
	}
	doc := struct {
		Apps     []appProfile            `json:"apps"`
		Corpus   *obs.Profile            `json:"corpus"`
		Parallel *evaluate.ParallelStats `json:"parallel,omitempty"`
	}{Corpus: evaluate.CorpusProfile(results), Parallel: pstats}
	for _, r := range results {
		doc.Apps = append(doc.Apps, appProfile{
			App:        r.App.Spec.Name,
			DurationMS: r.Report.Duration.Milliseconds(),
			Profile:    r.Report.Profile,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// writeCorpusTrace merges every app's span timeline into one Chrome
// trace-event document, one process track per app in corpus order.
func writeCorpusTrace(path string, results []*evaluate.AppResult) error {
	merged := &obs.Trace{DisplayTimeUnit: "ms"}
	for i, r := range results {
		if r.Tracer == nil {
			continue
		}
		merged.Merge(r.Tracer.Export(int64(i+1), r.App.Spec.Name))
	}
	data, err := merged.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
