package corpus

import "fmt"

// Seeded generative corpus: Rand derives arbitrarily many synthetic
// AppSpecs from a single uint64 seed. Every trait — transaction counts per
// verb, body/response key shapes, library, protocol, gating, obfuscation,
// scenario mix, StoreField/UseField chains — is drawn from a splitmix64
// stream, so the same seed reproduces byte-identical programs on any
// platform, while different seeds fan out across the trait space. The
// differential-testing harness (internal/evaluate) runs these corpora
// through every equivalence axis at scale.

// ScenarioNames lists the protocol scenarios the generator can draw.
var ScenarioNames = []string{"gzip", "chunked", "multipart", "cookie", "token", "paginate", "longpoll"}

// RandSpecs derives n reproducible synthetic AppSpecs from seed.
func RandSpecs(seed uint64, n int) []AppSpec {
	out := make([]AppSpec, 0, n)
	for i := 0; i < n; i++ {
		// Decorrelate apps: jump the stream by a golden-ratio multiple per
		// index, then mix a few steps.
		r := &rng{state: seed + uint64(i)*0x9E3779B97F4A7C15}
		r.next()
		r.next()
		out = append(out, randSpec(r, seed, i))
	}
	return out
}

// Rand generates the n-app corpus for seed.
func Rand(seed uint64, n int) []*App {
	specs := RandSpecs(seed, n)
	apps := make([]*App, len(specs))
	for i, s := range specs {
		apps[i] = Generate(s)
	}
	return apps
}

// randSpec draws one spec's traits.
func randSpec(r *rng, seed uint64, i int) AppSpec {
	spec := AppSpec{
		Name:    fmt.Sprintf("gen-%d-%04d", seed, i),
		Package: fmt.Sprintf("gen%d.app%04d", seed, i),
		Host:    fmt.Sprintf("api.app%04d.g%d.example.com", i, seed),
	}

	switch r.intn(10) {
	case 0, 1, 2:
		spec.Protocol = "HTTP"
	case 3:
		spec.Protocol = "HTTP(S)"
	default:
		spec.Protocol = "HTTPS"
	}
	spec.Library = []string{"apache", "urlconn", "okhttp", "volley"}[r.intn(4)]
	spec.OpenSource = r.intn(5) == 0
	spec.Gated = r.intn(10) == 0
	spec.Obfuscated = r.intn(7) == 0

	// Transaction counts per verb. E==M keeps every flow statically and
	// manually visible; occasionally the columns diverge so intent-triggered
	// (missed statically) and timer/push (missed manually) traits appear.
	spec.Counts = map[string]MethodCounts{}
	verbCount := func(base int) MethodCounts {
		e := 1 + r.intn(base)
		m := e
		switch r.intn(5) {
		case 0:
			m = e + 1 // one intent-triggered transaction
		case 1:
			if e > 1 {
				m = e - 1 // one timer/push-triggered transaction
			}
		}
		return MethodCounts{E: e, M: m, A: min(e, m)}
	}
	spec.Counts["GET"] = verbCount(3)
	if r.intn(10) < 7 {
		spec.Counts["POST"] = verbCount(2)
	}
	if r.intn(4) == 0 {
		spec.Counts["PUT"] = MethodCounts{E: 1, M: 1, A: 1}
	}
	if r.intn(5) == 0 {
		spec.Counts["DELETE"] = MethodCounts{E: 1, M: 1, A: 1}
	}

	// Map range is safe here and nowhere else in the generation path: a
	// commutative sum is iteration-order independent, so the rng stream
	// stays platform-deterministic.
	total := 0
	for _, c := range spec.Counts {
		total += c.Total()
	}
	spec.QueryBodies = r.intn(3)
	spec.JSONBodies = r.intn(3)
	spec.XMLBodies = r.intn(2)
	spec.Pairs = r.intn(total + 1)
	spec.Ballast = 5 + r.intn(12)

	// Scenario mix: up to three distinct scenarios per app.
	for _, sc := range ScenarioNames {
		if len(spec.Scenarios) < 3 && r.intn(100) < 30 {
			spec.Scenarios = append(spec.Scenarios, sc)
		}
	}
	return spec
}
