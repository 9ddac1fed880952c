package resultcache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/obs"
	"extractocol/internal/report"
	"extractocol/internal/sigbuild"
	"extractocol/internal/siglang"
	"extractocol/internal/sigvm"
	"extractocol/internal/trace"
	"extractocol/internal/wire"
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

// TestNilXMLChildRendersAndCompiles round-trips a report whose XML
// response root has a nil child, which the signature parser reads from
// ?elem and the codec stores, and requires every consumer of a decoded
// report to take it: the text and JSON renderers, the compiled matcher and
// the labeled-traffic generator. A nil child constrains nothing, so the
// DTD lists only the named child.
func TestNilXMLChildRendersAndCompiles(t *testing.T) {
	rep := cleanReport(t, "radio reddit", false)
	rep.Transactions[0].Response = &sigbuild.ResponseSig{BodyKind: "xml", XML: &siglang.Elem{
		Tag:      "feed",
		Children: []*siglang.Elem{{Tag: "entry", Text: siglang.AnyString()}, nil},
	}}
	enc, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeReport(enc)
	if err != nil {
		t.Fatal(err)
	}
	if kids := dec.Transactions[0].Response.XML.Children; len(kids) != 2 || kids[1] != nil {
		t.Fatalf("decoded children = %v, want [entry nil]", kids)
	}
	js, text := renderings(t, dec)
	if !json.Valid([]byte(js)) {
		t.Fatal("report JSON is not valid JSON")
	}
	if want := `"resp_dtd": "\u003c!ELEMENT feed (entry)\u003e\n\u003c!ELEMENT entry (#PCDATA)\u003e"`; !strings.Contains(js, want) {
		t.Errorf("report JSON lacks the DTD %q:\n%s", want, js)
	}
	if !strings.Contains(text, "response (xml)") {
		t.Errorf("text report lacks the XML response:\n%s", text)
	}
	if sigvm.Compile(dec).NumSigs() != len(dec.Transactions) {
		t.Error("compiled bundle lost a signature")
	}
	labeled := trace.RandEntries(7, dec, 200)
	res := trace.Classify(dec, trace.Entries(labeled), trace.ClassifyOptions{})
	for i, le := range labeled {
		if res.Verdicts[i] != le.WantID {
			t.Fatalf("entry %d: verdict %d, want %d", i, res.Verdicts[i], le.WantID)
		}
	}
}

// hostileHeaderCount is a sealed entry whose first request declares 2^20
// headers and then holds 2^20 zero bytes: room for only 349 525 headers of
// at least 3 bytes.
func hostileHeaderCount() []byte {
	var w wire.Writer
	w.String("") // package
	w.String("") // app name
	w.Float64(0) // slice fraction
	w.Uvarint(0) // DP count
	w.Uvarint(1) // one transaction
	w.Varint(0)  // id
	for i := 0; i < 5; i++ {
		w.String("") // dp, dp ref, entry method, entry kind, entry label
	}
	w.Bool(true)       // it has a request
	w.String("")       // method
	w.Byte(tagNil)     // URI
	w.Uvarint(1 << 20) // headers
	return wire.Seal(codecMagic, CodecVersion, w.Bytes(), make([]byte, 1<<20))
}

// TestDecodeReportRejectsHostileCountCheaply checks that every count of a
// cache entry is bounded by its element's minimum encoded size, not by one
// byte per element: the entry above fails at its header count, having
// allocated little more than the one copy of its payload.
func TestDecodeReportRejectsHostileCountCheaply(t *testing.T) {
	data := hostileHeaderCount()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeReport(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "count 1048576 of elements of at least 3 bytes exceeds") {
		t.Fatalf("DecodeReport = %v, want the header count rejected", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
		t.Fatalf("rejecting the entry allocated %d bytes, want under 2 MiB", n)
	}
}

// TestDecodeReportRejectsNonCanonical checks that the decoder accepts only
// the bytes the encoder writes, so an entry that decodes re-encodes to
// itself: each case below would decode, under a lenient reader, to a
// report whose encoding differs from the entry.
func TestDecodeReportRejectsNonCanonical(t *testing.T) {
	enc, err := EncodeReport(&core.Report{Transactions: []*core.Transaction{{
		Response: &sigbuild.ResponseSig{BodyKind: "json", WriteOrigins: map[string]string{"a": "v", "b": "v"}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	payload := enc[wire.HeaderLen:]
	origins := []byte{2, 1, 'a', 1, 'v', 1, 'b', 1, 'v'}
	for _, tc := range []struct {
		name, want string
		from, to   []byte
	}{
		// Package, app name, slice fraction, then the DP count 0.
		{"long varint", "not in its shortest form", payload[:11], append(payload[:10:10], 0x80, 0x00)},
		// The body kind, then the absent JSON body.
		{"bool byte 2", "bool byte 2", []byte{4, 'j', 's', 'o', 'n', 0}, []byte{4, 'j', 's', 'o', 'n', 2}},
		{"unsorted map", `map key "a" after "b"`, origins, []byte{2, 1, 'b', 1, 'v', 1, 'a', 1, 'v'}},
		{"repeated map key", `map key "a" after "a"`, origins, []byte{2, 1, 'a', 1, 'v', 1, 'a', 1, 'v'}},
	} {
		bad := bytes.Replace(payload, tc.from, tc.to, 1)
		if bytes.Equal(bad, payload) {
			t.Fatalf("%s: the entry has no %v", tc.name, tc.from)
		}
		_, err := DecodeReport(wire.Seal(codecMagic, CodecVersion, bad))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeReport = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := DecodeReport(enc); err != nil {
		t.Fatalf("the unmodified entry: %v", err)
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
// changed report-affecting option moves the key; excluded fields do not.
func TestKeySensitivity(t *testing.T) {
	opts := core.NewOptions()
	base := KeyFor("aa", opts)
	if KeyFor("ab", opts) == base {
		t.Error("binary hash change kept the key")
	}
	// The default fingerprint is pinned: every production key, and with it
	// every on-disk entry, stays valid only while this string is unchanged
	// (a deliberate change must bump CodecVersion instead).
	const defaultFP = "fp1|hops=1|scope=|intents=false|slicesteps=0|fixiters=0|explain=false"
	if fp := Fingerprint(opts); fp != defaultFP {
		t.Errorf("Fingerprint(NewOptions()) = %q, want %q", fp, defaultFP)
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
}
