//go:build race

package extractocol

// raceEnabled reports whether the race detector instruments this build;
// TestAllocCeilings skips then, since race instrumentation allocates on
// instrumented paths and so inflates every count the table holds.
const raceEnabled = true
