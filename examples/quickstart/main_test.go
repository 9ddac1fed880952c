package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestOutputGolden pins the example's output; testdata/output.golden was
// written from a run of the example and is edited by hand when the output
// is meant to change. The temporary directory and the run's timing lines
// differ from run to run, so they are masked.
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := mask(out.String()); got != string(want) {
		t.Errorf("output differs from testdata/output.golden; got:\n%s", got)
	}
}

var tempAPK = regexp.MustCompile(`loaded \S*/diode\.apkb`)

func mask(s string) string {
	var kept []string
	for _, l := range strings.SplitAfter(s, "\n") {
		if !strings.Contains(l, "analysis time") && !strings.Contains(l, "phases:") {
			kept = append(kept, l)
		}
	}
	return tempAPK.ReplaceAllString(strings.Join(kept, ""), "loaded <tmp>/diode.apkb")
}
