//go:build race

package sigvm_test

// raceEnabled reports whether the race detector instruments this build;
// the speedup floor skips then, since instrumentation skews wall time.
const raceEnabled = true
