// FuzzCorpusSpec drives the generative corpus from raw bytes: any input
// decodes (via decodeSpec) into a clamped, generatable AppSpec, and
// the resulting app must survive the full pipeline. Two properties are
// pinned for every input: a budgeted core.Analyze finishes without
// panicking, and a warm-cache replay of the same program reproduces the
// stored report byte-for-byte (the codec round-trip on arbitrary trait
// combinations, not just the hand-built corpus).
package extractocol

import (
	"fmt"
	"testing"
	"time"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/evaluate"
	"extractocol/internal/resultcache"
)

func FuzzCorpusSpec(f *testing.F) {
	// Seeds spanning the trait space: empty, single-byte, every-scenario
	// bitmask, and a long mixed draw.
	f.Add([]byte{})
	f.Add([]byte{7})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 0x3f})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec := decodeSpec(data)
		app := corpus.Generate(spec)

		// Budgeted analysis must degrade, never panic: wall-clock plus
		// deterministic step budgets tight enough that hostile trait
		// combinations actually trip them.
		budgeted := core.NewOptions()
		budgeted.Deadline = 10 * time.Second
		budgeted.MaxSliceSteps = 200_000
		budgeted.MaxFixpointIters = 100_000
		if _, err := core.Analyze(app.Prog, budgeted); err != nil {
			t.Fatalf("budgeted analyze: %v", err)
		}

		// Warm-cache replay: store on the first clean run, load on the
		// second, and require byte-identical canonical reports. Only
		// deterministic options participate — a deadline could make the
		// stored run time-dependent.
		cache, err := resultcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts := core.NewOptions()
		key, err := resultcache.KeyForProgram(app.Prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = cache
		opts.CacheKey = key
		cold, err := core.Analyze(app.Prog, opts)
		if err != nil {
			t.Fatalf("cold analyze: %v", err)
		}
		warm, err := core.Analyze(app.Prog, opts)
		if err != nil {
			t.Fatalf("warm analyze: %v", err)
		}
		cb, err := evaluate.CanonicalReport(cold)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := evaluate.CanonicalReport(warm)
		if err != nil {
			t.Fatal(err)
		}
		if string(cb) != string(wb) {
			t.Fatalf("warm-cache replay diverges for %q:\n--- cold ---\n%s\n--- warm ---\n%s",
				spec.Name, cb, wb)
		}
	})
}

// decodeSpec clamps arbitrary bytes into a valid corpus.AppSpec, mapping
// any input to a generatable app. The byte stream drives the same trait
// choices corpus.Rand makes.
func decodeSpec(data []byte) corpus.AppSpec {
	at := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	// Fold the bytes into a stream seed so key vocabulary picks vary too.
	var h uint64 = 1469598103934665603
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}

	spec := corpus.AppSpec{
		Name:    "fuzz-app",
		Package: fmt.Sprintf("fuzz.app%x", h&0xffff),
		Host:    "api.fuzz.example.com",
	}
	spec.Protocol = []string{"HTTP", "HTTPS", "HTTP(S)"}[at(0)%3]
	spec.Library = []string{"apache", "urlconn", "okhttp", "volley"}[at(1)%4]
	spec.OpenSource = at(2)%2 == 0
	spec.Gated = at(3)%4 == 0
	spec.Obfuscated = at(4)%4 == 0

	spec.Counts = map[string]corpus.MethodCounts{}
	verbs := []string{"GET", "POST", "PUT", "DELETE"}
	for vi, v := range verbs {
		b := at(5 + vi)
		if vi > 0 && b%3 == 0 {
			continue
		}
		e := 1 + b%3
		m := e + (at(9+vi)%3 - 1)
		if m < 0 {
			m = 0
		}
		if m > 4 {
			m = 4
		}
		spec.Counts[v] = corpus.MethodCounts{E: e, M: m, A: min(e, m)}
	}
	spec.QueryBodies = at(13) % 4
	spec.JSONBodies = at(14) % 4
	spec.XMLBodies = at(15) % 3
	spec.Pairs = at(16) % 8
	spec.Ballast = 3 + at(17)%8
	mask := at(18)
	for si, sc := range corpus.ScenarioNames {
		if mask&(1<<si) != 0 && len(spec.Scenarios) < 3 {
			spec.Scenarios = append(spec.Scenarios, sc)
		}
	}
	return spec
}
