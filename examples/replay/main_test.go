package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputGolden pins the example's output; testdata/output.golden was
// written from a run of the example and is edited by hand when the output
// is meant to change.
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from testdata/output.golden; got:\n%s", got)
	}
}
