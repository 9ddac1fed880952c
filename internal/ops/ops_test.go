package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"extractocol/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	c := obs.NewCollector()
	reg.Attach(c, "app")
	done := c.Phase(obs.PhaseSlice)
	done()
	c.Add(obs.CtrCacheReportHits, 1)

	s, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.Contains(s.URL(), "http://127.0.0.1:") {
		t.Fatalf("URL = %q", s.URL())
	}

	code, body := get(t, s.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"extractocol_runs_live 1",
		"extractocol_cache_report_hits_total 1",
		`extractocol_phase_latency_seconds_bucket{phase="slice"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	code, body = get(t, s.URL()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	var h struct {
		Status   string `json:"status"`
		RunsLive int64  `json:"runs_live"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v (%s)", err, body)
	}
	if h.Status != "ok" || h.RunsLive != 1 {
		t.Fatalf("/healthz = %+v", h)
	}

	code, body = get(t, s.URL()+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline status = %d", code)
	}
}

// TestServeShutdownNoLeak pins the goroutine hygiene of the listener: after
// Close, the serve goroutine and every connection goroutine must exit.
func TestServeShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s, err := Serve("127.0.0.1:0", obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if code, _ := get(t, s.URL()+"/healthz"); code != http.StatusOK {
			t.Fatalf("round %d: healthz = %d", i, code)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: close: %v", i, err)
		}
	}
	// Idle HTTP client keep-alive goroutines settle asynchronously; poll
	// with a deadline instead of asserting instantly.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServeNilSafety(t *testing.T) {
	var s *Server
	if s.URL() != "" || s.Close() != nil {
		t.Fatal("nil server should be inert")
	}
	if _, err := Serve("256.256.256.256:1", obs.NewRegistry()); err == nil {
		t.Fatal("bad address should error")
	}
}

// TestOpenPlane: with neither flag the plane is off (nil registry); with
// only -events it is a registry, not served, whose log receives the
// events of attached collectors; a bad path fails with an events error.
func TestOpenPlane(t *testing.T) {
	off, err := Open("", "")
	if err != nil || off.Reg != nil || off.Close() != nil {
		t.Fatalf("Open with no flags = %+v, %v; want an inert plane", off, err)
	}

	path := filepath.Join(t.TempDir(), "events.jsonl")
	p, err := Open("", path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reg == nil || p.srv != nil {
		t.Fatalf("events-only plane = %+v, want a registry and no listener", p)
	}
	c := obs.NewCollector()
	p.Reg.Attach(c, "app")
	c.Phase(obs.PhaseValidate)()
	p.Reg.Detach(c)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 || !strings.Contains(string(data), `"app":"app"`) {
		t.Fatalf("event log = %q, want the phase's start and end tagged with the app", data)
	}

	if _, err := Open("", filepath.Join(t.TempDir(), "missing", "x.jsonl")); err == nil ||
		!strings.HasPrefix(err.Error(), "events: ") {
		t.Fatalf("unwritable events file: err = %v", err)
	}
}
