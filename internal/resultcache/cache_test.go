package resultcache

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/obs"
	"extractocol/internal/report"
	"extractocol/internal/semmodel"
)

// cleanReport analyzes a corpus app and strips the run-local fields the
// codec deliberately never stores.
func cleanReport(t *testing.T, name string, explain bool) *core.Report {
	t.Helper()
	app, err := corpus.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions()
	opts.Explain = explain
	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("%s: unexpected diagnostics %v", name, rep.Diagnostics)
	}
	rep.Duration = 0
	rep.Profile = nil
	return rep
}

// renderings returns the two user-facing serializations a cached report
// must reproduce exactly.
func renderings(t *testing.T, rep *core.Report) (string, string) {
	t.Helper()
	data, err := report.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), report.Text(rep)
}

// TestCodecRoundTripsCorpusReports checks losslessness on real pipeline
// output, with and without the explain layer: the decoded report renders
// byte-identically in both output formats, and re-encoding it reproduces
// the entry bytes (the codec is a fixed point on its own output).
func TestCodecRoundTripsCorpusReports(t *testing.T) {
	for _, tc := range []struct {
		app     string
		explain bool
	}{
		{"radio reddit", false},
		{"radio reddit", true},
		{"KAYAK", false},
		{"TED", true},
	} {
		rep := cleanReport(t, tc.app, tc.explain)
		wantJSON, wantText := renderings(t, rep)
		enc, err := EncodeReport(rep)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.app, err)
		}
		dec, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.app, err)
		}
		gotJSON, gotText := renderings(t, dec)
		if gotJSON != wantJSON {
			t.Errorf("%s (explain=%v): JSON rendering diverges after round trip", tc.app, tc.explain)
		}
		if gotText != wantText {
			t.Errorf("%s (explain=%v): text rendering diverges after round trip", tc.app, tc.explain)
		}
		enc2, err := EncodeReport(dec)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", tc.app, err)
		}
		if string(enc2) != string(enc) {
			t.Errorf("%s (explain=%v): re-encoding is not byte-identical", tc.app, tc.explain)
		}
	}
}

// TestCacheGetPut exercises the disk layer directly: miss on empty dir,
// hit after Put, entries shared across Cache handles on the same dir.
func TestCacheGetPut(t *testing.T) {
	rep := cleanReport(t, "radio reddit", false)
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor("deadbeef", core.NewOptions())
	if key == "" {
		t.Fatal("default options must be cacheable")
	}
	if _, hit, err := c.Get(key); hit || err != nil {
		t.Fatalf("empty cache: hit=%v err=%v", hit, err)
	}
	if err := c.Put(key, rep); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir) // a second handle sees the same entries
	if err != nil {
		t.Fatal(err)
	}
	got, hit, err := c2.Get(key)
	if !hit || err != nil {
		t.Fatalf("after put: hit=%v err=%v", hit, err)
	}
	wantJSON, _ := renderings(t, rep)
	gotJSON, _ := renderings(t, got)
	if gotJSON != wantJSON {
		t.Error("cached report renders differently")
	}
}

// TestContentionGauges pins the same-key contention instrumentation: Open
// returns one shared Cache per directory, a blocked same-key acquisition
// counts a race and accumulates lock-wait time, and DrainContention is
// read-and-reset.
func TestContentionGauges(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c {
		t.Fatal("Open must return the shared cache for one directory")
	}
	c.DrainContention()

	// Hold the key's lock, then Get the same key from another goroutine:
	// its TryLock must fail (one race) and its wait is charged to the gauge.
	key := KeyFor("deadbeef", core.NewOptions())
	unlock := c.lock(key)
	done := make(chan error, 1)
	go func() {
		_, hit, err := c.Get(key)
		if hit {
			err = os.ErrExist
		}
		done <- err
	}()
	for i := 0; c.sameKeyRaces.Load() == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * time.Millisecond) // accumulate measurable wait
	unlock()
	if err := <-done; err != nil {
		t.Fatalf("contended Get: %v", err)
	}

	wait, races, retries := c.DrainContention()
	if races != 1 {
		t.Errorf("same-key races = %d, want 1", races)
	}
	if wait <= 0 {
		t.Errorf("lock-wait ns = %d, want > 0", wait)
	}
	if retries != 0 {
		t.Errorf("install retries = %d, want 0", retries)
	}
	if w, r, i := c.DrainContention(); w != 0 || r != 0 || i != 0 {
		t.Errorf("second drain = (%d, %d, %d), want zeros", w, r, i)
	}
}

// TestAnalyzeDrainsContention checks the core wiring: gauges staged on the
// shared cache surface as counters in the next analysis profile, and a
// contention-free run records none of them.
func TestAnalyzeDrainsContention(t *testing.T) {
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions()
	key, err := KeyForProgram(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = c
	opts.CacheKey = key

	c.lockWaitNS.Add(123)
	c.sameKeyRaces.Add(4)
	c.installRetries.Add(5)
	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Profile.Counters[obs.CtrCacheLockWaitNS]; got != 123 {
		t.Errorf("cache_lock_wait_ns = %d, want 123", got)
	}
	if got := rep.Profile.Counters[obs.CtrCacheKeyRaces]; got != 4 {
		t.Errorf("cache_key_races = %d, want 4", got)
	}
	if got := rep.Profile.Counters[obs.CtrCacheInstallRetries]; got != 5 {
		t.Errorf("cache_install_retries = %d, want 5", got)
	}

	// The drain is read-and-reset, so an uncontended warm run is clean.
	warm, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctr := range []string{obs.CtrCacheLockWaitNS, obs.CtrCacheKeyRaces, obs.CtrCacheInstallRetries} {
		if got := warm.Profile.Counters[ctr]; got != 0 {
			t.Errorf("uncontended warm run %s = %d, want 0", ctr, got)
		}
	}
}

// entryFile returns the single .report entry in dir.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.report"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("entries = %v (err %v), want exactly 1", matches, err)
	}
	return matches[0]
}

// TestCorruptEntriesNeverServeWrongReports is the invalidation guarantee:
// flipping any byte of an entry, truncating it, or rewriting it with a
// wrong version must yield either a clean miss-with-error (so core
// recomputes) — never a panic and never a silently wrong report.
func TestCorruptEntriesNeverServeWrongReports(t *testing.T) {
	rep := cleanReport(t, "radio reddit", false)
	wantJSON, _ := renderings(t, rep)
	key := KeyFor("deadbeef", core.NewOptions())

	check := func(t *testing.T, mutate func(data []byte) []byte) {
		t.Helper()
		dir := t.TempDir()
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(key, rep); err != nil {
			t.Fatal(err)
		}
		path := entryFile(t, dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		got, hit, err := c.Get(key)
		if err == nil && hit {
			// The mutation happened to keep the entry decodable (e.g. a
			// byte flip inside a string literal that the checksum catches
			// — it cannot, flips always change the CRC, so reaching here
			// with identical rendering means the mutation was a no-op).
			gotJSON, _ := renderings(t, got)
			if gotJSON != wantJSON {
				t.Fatal("corrupt entry served a wrong report")
			}
			return
		}
		if err == nil {
			t.Fatal("corrupt entry reported as a clean miss, want decode error")
		}
	}

	t.Run("byte flips", func(t *testing.T) {
		// Flip a spread of offsets: magic, version, checksum, and payload.
		probe := []int{0, 3, 4, 5, 6, 9, 20, 100}
		for _, off := range probe {
			off := off
			check(t, func(data []byte) []byte {
				if off >= len(data) {
					off = len(data) - 1
				}
				out := append([]byte(nil), data...)
				out[off] ^= 0x40
				return out
			})
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, keep := range []int{0, 3, 9, 10} {
			keep := keep
			check(t, func(data []byte) []byte { return data[:keep] })
		}
		check(t, func(data []byte) []byte { return data[:len(data)/2] })
		check(t, func(data []byte) []byte { return data[:len(data)-1] })
	})
	t.Run("trailing garbage", func(t *testing.T) {
		check(t, func(data []byte) []byte { return append(append([]byte(nil), data...), 0xFF) })
	})
	t.Run("wrong version", func(t *testing.T) {
		check(t, func(data []byte) []byte {
			out := append([]byte(nil), data...)
			out[4], out[5] = 0xFF, 0xFF
			return out
		})
	})
}

// TestAnalyzeRecomputesOnCorruptEntry drives the fallback end to end
// through core.Analyze: a corrupted entry must produce a full recompute
// with a typed cache diagnostic and the invalid counter — and the
// recomputed report must match a cache-off run exactly.
func TestAnalyzeRecomputesOnCorruptEntry(t *testing.T) {
	app, err := corpus.ByName("radio reddit")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions()
	key, err := KeyForProgram(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = c
	opts.CacheKey = key

	cold, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Profile.Counters[obs.CtrCacheReportWrites]; got != 1 {
		t.Fatalf("cold run cache_report_writes = %d, want 1", got)
	}

	path := entryFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Profile.Counters[obs.CtrCacheReportInvalid]; got != 1 {
		t.Fatalf("cache_report_invalid = %d, want 1", got)
	}
	if got := rep.Profile.Counters[obs.CtrCacheReportHits]; got != 0 {
		t.Fatalf("cache_report_hits = %d, want 0", got)
	}
	// The forced recompute repairs the entry in the same run (a cache-read
	// diagnostic doesn't mark the analysis itself degraded).
	if got := rep.Profile.Counters[obs.CtrCacheReportWrites]; got != 1 {
		t.Fatalf("repair write: cache_report_writes = %d, want 1", got)
	}
	var found bool
	for _, d := range rep.Diagnostics {
		if d.Phase == budget.PhaseCache && d.Kind == budget.DiagCache {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cache diagnostic in %v", rep.Diagnostics)
	}

	// The degraded-to-recompute report must still match a cache-off run,
	// modulo the run-local fields and the cache diagnostic itself.
	plain, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep.Duration, plain.Duration = 0, 0
	rep.Profile, plain.Profile = nil, nil
	rep.Diagnostics, plain.Diagnostics = nil, nil
	wantJSON, _ := renderings(t, plain)
	gotJSON, _ := renderings(t, rep)
	if gotJSON != wantJSON {
		t.Error("recomputed report differs from cache-off run")
	}

	// The repaired entry serves the next run as a plain hit.
	warm, err := core.Analyze(app.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Profile.Counters[obs.CtrCacheReportHits]; got != 1 {
		t.Fatalf("after repair: cache_report_hits = %d, want 1", got)
	}
}

// TestKeySensitivity pins the invalidation matrix: a changed binary or any
// changed report-affecting option moves the key; excluded fields do not;
// a custom model disables caching.
func TestKeySensitivity(t *testing.T) {
	opts := core.NewOptions()
	base := KeyFor("aa", opts)
	if base == "" {
		t.Fatal("default options must be cacheable")
	}
	if KeyFor("ab", opts) == base {
		t.Error("binary hash change kept the key")
	}
	// The default fingerprint is pinned: every production key, and with it
	// every on-disk entry, stays valid only while this string is unchanged
	// (a deliberate change must bump CodecVersion instead).
	const defaultFP = "fp1|hops=1|scope=|intents=false|slicesteps=0|fixiters=0|explain=false"
	if fp, ok := Fingerprint(opts); !ok || fp != defaultFP {
		t.Errorf("Fingerprint(NewOptions()) = %q, %v; want %q, true", fp, ok, defaultFP)
	}

	mutations := map[string]func(*core.Options){
		"hops":       func(o *core.Options) { o.MaxAsyncHops = 2 },
		"scope":      func(o *core.Options) { o.ScopePrefix = "com.kayak." },
		"intents":    func(o *core.Options) { o.ModelIntents = !o.ModelIntents },
		"slicesteps": func(o *core.Options) { o.MaxSliceSteps = 12345 },
		"fixiters":   func(o *core.Options) { o.MaxFixpointIters = 77 },
		"explain":    func(o *core.Options) { o.Explain = true },
	}
	for name, mutate := range mutations {
		o := core.NewOptions()
		mutate(&o)
		if KeyFor("aa", o) == base {
			t.Errorf("%s change kept the key", name)
		}
	}

	// Run-local fields must NOT move the key: a deadline-degraded run is
	// never cached anyway (clean-runs-only store policy), and profiling
	// must not fork the cache.
	neutral := map[string]func(*core.Options){
		"deadline": func(o *core.Options) { o.Deadline = 1 },
		"tracer":   func(o *core.Options) { o.Tracer = obs.NewTracer() },
		"obs":      func(o *core.Options) { o.Obs = obs.NewRegistry() },
		"flight":   func(o *core.Options) { o.Flight = true },
	}
	for name, mutate := range neutral {
		o := core.NewOptions()
		mutate(&o)
		if KeyFor("aa", o) != base {
			t.Errorf("%s change moved the key", name)
		}
	}

	custom := core.NewOptions()
	custom.Model = semmodel.Default()
	if KeyFor("aa", custom) != "" {
		t.Error("custom model must disable caching")
	}
}
