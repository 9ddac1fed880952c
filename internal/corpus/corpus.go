// Package corpus provides the 34-application evaluation corpus: synthetic
// Android applications authored in the IR, one per row of the paper's
// Table 1 (14 open-source and 20 closed-source apps), plus their simulated
// server backends.
//
// Each application is generated from a declarative spec carrying the
// per-method signature counts the paper reports for Extractocol (E),
// manual UI fuzzing (M), and automatic UI fuzzing (A). The spec drives
// which *reachability trait* each transaction's entry point gets:
//
//   - transactions Extractocol misses are intent-triggered (§4);
//   - transactions fuzzing misses are timer-, server-push- or
//     side-effect-triggered (§5.1);
//   - transactions automatic fuzzing misses sit behind login or custom UI;
//   - apps whose auto column is all zeros gate the whole UI behind a
//     custom-drawn first screen PUMA cannot recognize.
//
// Crucially, the static analyzer never sees the traits — it must
// rediscover every transaction from the binary. The traits only gate what
// the dynamic baselines can reach, which is the paper's own explanation
// for the coverage differences.
//
// Four apps are hand-written at full fidelity for the case studies:
// Diode (Fig. 3), radio reddit (Table 3), TED (Table 4, Fig. 1) and
// Kayak (Tables 5 and 6).
package corpus

import (
	"fmt"
	"sort"

	"extractocol/internal/httpsim"
	"extractocol/internal/ir"
)

// MethodCounts carries one Table 1 cell triple for an HTTP method.
type MethodCounts struct {
	E int // Extractocol
	M int // manual UI fuzzing
	A int // automatic UI fuzzing (or source code, for open-source apps)
}

// Total returns the number of distinct transactions implied by the cell:
// the union of what static analysis and manual fuzzing see.
func (c MethodCounts) Total() int {
	if c.E > c.M {
		return c.E
	}
	return c.M
}

// AppSpec describes one corpus application.
type AppSpec struct {
	Name       string
	Package    string
	Host       string
	OpenSource bool
	Protocol   string // "HTTP", "HTTPS", "HTTP(S)" — cosmetic, from Table 1
	Gated      bool   // custom-UI gate: automatic fuzzing explores nothing

	// Counts holds the Table 1 cells keyed by HTTP method.
	Counts map[string]MethodCounts

	// Body-kind quotas (paper's Query string / JSON / XML columns) and the
	// reconstructed-pair count. The generator distributes them over the
	// transactions.
	QueryBodies int
	JSONBodies  int
	XMLBodies   int
	Pairs       int

	// Library selects the HTTP stack the app uses: "apache", "urlconn",
	// "okhttp" or "volley".
	Library string

	// Ballast is the number of non-networking methods (UI plumbing,
	// formatting, view logic) to emit; 0 picks a default proportional to
	// the transaction count. Real apps are mostly not protocol code — the
	// paper's Fig. 3 slices cover only 6.3% of Diode — and the slicer's
	// selectivity is only measurable against such ballast.
	Ballast int

	// Handwritten marks the four case-study apps built by dedicated code.
	Handwritten bool

	// Scenarios lists protocol-surface extensions to append as extra
	// transactions ("gzip", "chunked", "multipart", "cookie", "token",
	// "paginate"); see planScenarios. The Table 1 specs leave it empty.
	Scenarios []string

	// Obfuscated applies ProGuard-style renaming to the generated program
	// (a generative-corpus trait; analysis output must be invariant).
	Obfuscated bool
}

// App is a fully built corpus application.
type App struct {
	Spec AppSpec
	Prog *ir.Program
	// NewNetwork builds a fresh simulated backend (fresh state per run).
	NewNetwork func() *httpsim.Network
	// Truth is the ground truth derived from the spec (the "source code
	// analysis" column for open-source apps).
	Truth Truth
}

// Truth is the per-app ground truth used by the evaluation.
type Truth struct {
	ByMethod    map[string]int // all transactions per method
	StaticVis   map[string]int // transactions visible to static analysis
	ManualVis   map[string]int // reachable by manual fuzzing
	AutoVis     map[string]int // reachable by automatic fuzzing
	QueryBodies int
	JSONBodies  int
	XMLBodies   int
	Pairs       int
}

// Apps builds the complete corpus. Programs are freshly generated on every
// call so callers may mutate (e.g. obfuscate) their copies.
func Apps() []*App {
	var out []*App
	for _, spec := range Specs() {
		out = append(out, Generate(spec))
	}
	out = append(out, Diode(), RadioReddit(), TED(), Kayak(), WeatherNotification())
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// ByName returns one corpus app.
func ByName(name string) (*App, error) {
	for _, a := range Apps() {
		if a.Spec.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("corpus: unknown app %q", name)
}

// Names lists corpus app names in order.
func Names() []string {
	var out []string
	for _, a := range Apps() {
		out = append(out, a.Spec.Name)
	}
	return out
}

// OpenSource returns the open-source subset.
func OpenSource() []*App {
	var out []*App
	for _, a := range Apps() {
		if a.Spec.OpenSource {
			out = append(out, a)
		}
	}
	return out
}

// rng is a deterministic splitmix64 generator used for picking keyword
// vocabulary; the corpus must be bit-identical across runs.
type rng struct{ state uint64 }

func newRng(seed string) *rng {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(seed); i++ {
		h ^= uint64(seed[i])
		h *= 1099511628211
	}
	return &rng{state: h}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) pick(words []string) string { return words[r.intn(len(words))] }

// Vocabulary for resources, query keys and JSON keys.
var (
	resourceWords = []string{
		"items", "feed", "products", "users", "session", "search", "offers",
		"orders", "messages", "notifications", "categories", "photos",
		"reviews", "cart", "profile", "friends", "stories", "boards",
		"pins", "tracks", "stations", "videos", "articles", "deals",
		"auctions", "listings", "jobs", "flights", "hotels", "weather",
		"alerts", "coupons", "payments", "shipments", "wallet", "streams",
	}
	keyWords = []string{
		"id", "token", "page", "limit", "sort", "filter", "lang", "country",
		"device", "version", "q", "category", "price", "status", "user_id",
		"session_id", "offset", "count", "fields", "format", "api_key",
		"timestamp", "lat", "lon", "zip", "currency", "locale", "tab",
		"size", "color", "brand", "rating", "seller", "buyer", "bid",
	}
	respWords = []string{
		"title", "name", "url", "image", "thumbnail", "description",
		"created_at", "updated_at", "score", "likes", "comments", "state",
		"total", "next_page", "prev_page", "owner", "address", "phone",
		"email", "balance", "expires", "kind", "tags", "body", "author",
		"duration", "views", "position", "quantity", "discount", "stock",
	}
)
