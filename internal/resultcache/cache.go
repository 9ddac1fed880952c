// Package resultcache is the persistent, content-addressed report cache
// behind warm-path analysis. Extractocol's pipeline is whole-program and
// per-binary, so a deployment serving repeated analyses of the same app
// binaries recomputes identical reports on every request; this package
// makes the repeated-analysis path a disk read instead, the same reusable
// precomputed-summary idea StubDroid applies to library code.
//
// Cache entries are keyed by SHA-256 over three components:
//
//	(SHA-256 of the .apkb container bytes,
//	 canonical fingerprint of every report-affecting core.Options field,
//	 cache entry format version)
//
// so a changed binary, a changed analysis configuration, or a changed codec
// each miss cleanly instead of serving a stale or misread report. Entries
// are whole core.Report values in the codec.go binary format; Duration and
// Profile are never cached — a warm run recomputes both, and its profile
// records only the resultcache phase plus a cache_report_hits counter.
//
// The cache is safe for concurrent use by independent processes and
// goroutines: reads are plain file reads of immutable content-addressed
// entries, writes go through a temp file and an atomic rename.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"extractocol/internal/core"
	"extractocol/internal/dex"
	"extractocol/internal/ir"
)

// Cache is an on-disk report store rooted at one directory. It implements
// core.ReportCache.
//
// Same-key operations are serialized in-process through a per-key lock
// table, and the cache keeps contention gauges — time spent blocked on a
// key's lock, contended (same-key race) acquisitions, and atomic-install
// retries — that core.Analyze drains into each report's profile (see
// DrainContention).
type Cache struct {
	dir string

	locks sync.Map // cache key -> *sync.Mutex

	lockWaitNS     atomic.Int64
	sameKeyRaces   atomic.Int64
	installRetries atomic.Int64
}

// opened deduplicates Open calls on the same directory: parallel corpus
// workers each Open the shared cache dir, and contention is only observable
// when they share one lock table.
var (
	openMu sync.Mutex
	opened = map[string]*Cache{}
)

// Open returns the cache rooted at dir, creating the directory if needed.
// Opening the same directory again returns the same *Cache, so every
// same-process user shares one lock table and one set of gauges.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	id := dir
	if abs, err := filepath.Abs(dir); err == nil {
		id = abs
	}
	openMu.Lock()
	defer openMu.Unlock()
	if c := opened[id]; c != nil {
		return c, nil
	}
	c := &Cache{dir: dir}
	opened[id] = c
	return c, nil
}

// lock serializes same-key cache operations within the process, recording
// contended acquisitions and the time spent blocked. It returns the unlock.
func (c *Cache) lock(key string) func() {
	v, _ := c.locks.LoadOrStore(key, &sync.Mutex{})
	mu := v.(*sync.Mutex)
	if !mu.TryLock() {
		// Another goroutine holds this key: a same-key race. Everything
		// past this point is pure wait, charged to the lock-wait gauge.
		c.sameKeyRaces.Add(1)
		start := time.Now()
		mu.Lock()
		c.lockWaitNS.Add(time.Since(start).Nanoseconds())
	}
	return mu.Unlock
}

// DrainContention returns the contention gauges accumulated since the last
// drain and resets them: total nanoseconds goroutines spent blocked on
// per-key locks, contended same-key acquisitions, and atomic-install
// retries. core.Analyze type-asserts for this method and folds the deltas
// into the report profile, so corpus-wide aggregation sums correctly even
// though racing workers drain a shared cache.
func (c *Cache) DrainContention() (lockWaitNS, sameKeyRaces, installRetries int64) {
	return c.lockWaitNS.Swap(0), c.sameKeyRaces.Swap(0), c.installRetries.Swap(0)
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path maps a cache key to its entry file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".report")
}

// Get implements core.ReportCache: (report, true, nil) on a hit,
// (nil, false, nil) when no entry exists, and a non-nil error when an entry
// exists but cannot be decoded — the caller recomputes and reports a
// diagnostic, never a wrong report.
func (c *Cache) Get(key string) (*core.Report, bool, error) {
	defer c.lock(key)()
	data, err := os.ReadFile(c.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("resultcache: read entry: %w", err)
	}
	rep, err := DecodeReport(data)
	if err != nil {
		return nil, false, err
	}
	return rep, true, nil
}

// Put implements core.ReportCache: it encodes r and installs the entry
// atomically (temp file + rename), so concurrent corpus workers and racing
// processes can only ever observe absent or complete entries.
func (c *Cache) Put(key string, r *core.Report) error {
	data, err := EncodeReport(r)
	if err != nil {
		return err
	}
	defer c.lock(key)()
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("resultcache: write entry: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: write entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: write entry: %w", err)
	}
	// The rename can transiently fail when an external process races the
	// same entry (e.g. a scanner holding the destination open on some
	// platforms); retry a couple of times before giving up, counting each
	// extra attempt in the install-retry gauge.
	for attempt := 0; ; attempt++ {
		err = os.Rename(tmp.Name(), c.path(key))
		if err == nil {
			return nil
		}
		if attempt >= 2 {
			break
		}
		c.installRetries.Add(1)
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
	}
	os.Remove(tmp.Name())
	return fmt.Errorf("resultcache: install entry: %w", err)
}

// HashBytes returns the hex SHA-256 of an .apkb container's raw bytes —
// the binary-identity component of the cache key.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Fingerprint canonically renders every report-affecting core.Options
// field. Fields that cannot change the report's content are deliberately
// excluded: Tracer and the profile machinery (recomputed per run), and
// Deadline/Cancel/Faults (time- and fault-dependent degradation is never
// cached — see core's clean-runs-only store policy). The deterministic step budgets DO
// participate, because a truncating budget changes which transactions
// survive. A custom semantic model makes the options non-cacheable (second
// return false): two distinct models would collide on one fingerprint.
func Fingerprint(opts core.Options) (string, bool) {
	if opts.Model != nil {
		return "", false
	}
	var b strings.Builder
	b.WriteString("fp1")
	b.WriteString("|hops=")
	b.WriteString(strconv.Itoa(opts.MaxAsyncHops))
	b.WriteString("|scope=")
	b.WriteString(opts.ScopePrefix)
	b.WriteString("|intents=")
	b.WriteString(strconv.FormatBool(opts.ModelIntents))
	b.WriteString("|slicesteps=")
	b.WriteString(strconv.FormatInt(opts.MaxSliceSteps, 10))
	b.WriteString("|fixiters=")
	b.WriteString(strconv.FormatInt(opts.MaxFixpointIters, 10))
	b.WriteString("|explain=")
	b.WriteString(strconv.FormatBool(opts.Explain))
	return b.String(), true
}

// KeyFor combines a container hash (HashBytes), the options fingerprint
// and the codec version into the content address of one cache entry. It
// returns "" when the options are not cacheable; core.Analyze treats an
// empty key as cache-off.
func KeyFor(apkbHash string, opts core.Options) string {
	fp, ok := Fingerprint(opts)
	if !ok {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00codec=%d", apkbHash, fp, CodecVersion)
	return hex.EncodeToString(h.Sum(nil))
}

// KeyForProgram is KeyFor for callers holding a decoded program instead of
// container bytes (the in-memory evaluation corpus): the binary identity is
// the SHA-256 of the program's canonical .apkb encoding, so a file-based
// and an in-memory caller of the same app share entries.
func KeyForProgram(p *ir.Program, opts core.Options) (string, error) {
	data, err := dex.Encode(p)
	if err != nil {
		return "", fmt.Errorf("resultcache: encode program for hashing: %w", err)
	}
	return KeyFor(HashBytes(data), opts), nil
}
