package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleArtifacts(t *testing.T) {
	// The cheap artifacts that do not require the full corpus sweep.
	for _, only := range []string{"table3", "table5", "table6", "ablation"} {
		if err := run(config{only: only}); err != nil {
			t.Errorf("%s: %v", only, err)
		}
	}
}

func TestRunTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	if err := run(config{only: "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	// -profile over the parallel corpus mode: the per-app fan-out plus the
	// observability rendering must succeed end to end.
	if err := run(config{only: "timing", profile: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunGenRejectsIgnoredFlags: the -gen harness honours only -deadline,
// -ops and -events, so every other artifact flag is an error that names
// the flag, returned before any work (no trace file, no cache directory).
func TestRunGenRejectsIgnoredFlags(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "x.json")
	cacheDir := filepath.Join(dir, "cache")
	for _, tc := range []struct {
		flag string
		cfg  config
	}{
		{"-trace", config{traceFile: traceFile}},
		{"-flight", config{flight: true}},
		{"-profile", config{profile: true}},
		{"-cache", config{cacheDir: cacheDir}},
		{"-serial", config{serial: true}},
		{"-only", config{only: "table1"}},
	} {
		tc.cfg.gen = "1729:3"
		err := run(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("-gen with %s: err = %v, want an error naming %s", tc.flag, err, tc.flag)
		}
	}
	for _, path := range []string{traceFile, cacheDir} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s exists after rejected -gen runs (stat err %v)", path, err)
		}
	}
}

// TestRunRejectsUnknownArtifact: an -only value that names no artifact is
// an error listing the valid names, returned before any work, instead of
// an empty run that exits 0.
func TestRunRejectsUnknownArtifact(t *testing.T) {
	err := run(config{only: "bogus"})
	if err == nil {
		t.Fatal("-only bogus: accepted")
	}
	for _, name := range []string{"table1", "validity", "timing", "slicefraction"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("-only bogus: error %q does not name the artifact %s", err, name)
		}
	}
}
