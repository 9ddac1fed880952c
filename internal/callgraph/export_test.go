package callgraph

import (
	"sort"

	"extractocol/internal/ir"
)

// Fixture builders and the reachability oracle, shared with the external
// callgraph_test package, whose tests need the corpus (which imports
// callgraph through obfuscate).
var (
	FixtureCHA       = testApp
	FixtureInterface = interfaceApp
	ReachableRefs    = reachableRefs
)

// AnalysisRoots returns the entry-point methods the static analyzer may
// legitimately start from, sorted. Intent-triggered entry points are
// excluded: the paper's system does not model Android intents (§4), which
// is the root cause of its missed messages in Table 1.
func AnalysisRoots(p *ir.Program) []string {
	var out []string
	for _, ep := range p.Manifest.EntryPoints {
		if ep.Kind == ir.EventIntent {
			continue
		}
		out = append(out, ep.Method)
	}
	sort.Strings(out)
	return out
}
