// Package ops is the operational HTTP endpoint of the telemetry plane: a
// small listener mounted by the CLI commands that exposes the process's
// obs.Registry as Prometheus text on /metrics, a liveness probe on
// /healthz, and the standard net/http/pprof profiling handlers —
// everything a fleet operator needs to watch a long corpus run from the
// outside. Open builds the whole plane behind the commands' -ops and
// -events flags.
//
// The server idiom mirrors internal/httpsim: bind an explicit listener
// (so ":0" reports the kernel-chosen port), serve on a goroutine, and shut
// down gracefully with a bounded drain.
package ops

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"extractocol/internal/obs"
)

// Plane is the live telemetry plane behind the -ops and -events flags:
// one registry, the listener serving it and the event log it carries. Reg
// is nil when neither flag is set, which keeps telemetry off and free on
// the analysis path.
type Plane struct {
	Reg *obs.Registry
	srv *Server
	log *obs.EventLog
}

// Open starts whatever the flags ask for: a registry served on addr, an
// event log written to a fresh eventsFile, or both on one registry. The
// bound address is announced on stderr (stdout carries the command's
// output) so scripts can discover a :0 listener.
func Open(addr, eventsFile string) (*Plane, error) {
	p := &Plane{}
	if addr == "" && eventsFile == "" {
		return p, nil
	}
	p.Reg = obs.NewRegistry()
	if addr != "" {
		srv, err := Serve(addr, p.Reg)
		if err != nil {
			return nil, fmt.Errorf("ops: %w", err)
		}
		p.srv = srv
		fmt.Fprintf(os.Stderr, "ops: serving on %s\n", srv.URL())
	}
	if eventsFile != "" {
		f, err := os.Create(eventsFile)
		if err != nil {
			p.srv.Close()
			return nil, fmt.Errorf("events: %w", err)
		}
		p.log = obs.NewEventLog(f)
		p.Reg.LogEvents(p.log)
	}
	return p, nil
}

// Close shuts the listener down and flushes the event log; the first
// error wins.
func (p *Plane) Close() error {
	err := p.srv.Close()
	if e := p.log.Close(); err == nil {
		err = e
	}
	return err
}

// Server is a running ops endpoint.
type Server struct {
	// Addr is the bound address, e.g. "127.0.0.1:43210" — useful when the
	// caller asked for port 0.
	Addr string

	srv *http.Server
	ln  net.Listener
}

// health is the /healthz payload. Field order is fixed by the struct so
// probes can assert on the serialized form.
type health struct {
	Status    string `json:"status"`
	UptimeSec int64  `json:"uptime_sec"`
	RunsLive  int64  `json:"runs_live"`
}

// Handler returns the ops endpoint's routing table for the given registry,
// usable standalone (tests, or mounting under a larger server).
func Handler(reg *obs.Registry) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, reg.Prometheus())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _, _, live := reg.Gather()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(health{
			Status:    "ok",
			UptimeSec: int64(time.Since(start).Seconds()),
			RunsLive:  live,
		})
	})
	// net/http/pprof registers on http.DefaultServeMux as an import side
	// effect; mount the handlers explicitly so this mux stays self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr (":0" picks a free port) and serves the ops endpoint
// for reg until Close.
func Serve(addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(reg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second, // pprof profiles stream for 30s
		IdleTimeout:       60 * time.Second,
	}
	s := &Server{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go func() {
		// Serve returns ErrServerClosed after Shutdown; anything else means
		// the listener died, which Close surfaces via the server state.
		_ = srv.Serve(ln)
	}()
	return s, nil
}

// URL returns the endpoint's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr
}

// Close drains in-flight requests (bounded) and releases the listener. A
// nil server is a no-op so callers can close unconditionally.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
