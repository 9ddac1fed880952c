package callgraph

// Fixture builders and the reachability oracle, shared with the external
// callgraph_test package, whose tests need the corpus (which imports
// callgraph through obfuscate).
var (
	FixtureCHA       = testApp
	FixtureInterface = interfaceApp
	ReachableRefs    = reachableRefs
)
