// Flight recorder: a bounded ring of the most recent span records per
// shard, kept even when full tracing is off, so that when the budget
// layer recovers a panic or a deadline fires, the diagnostic can say what
// the phase was doing in its last moments. Like the counter shards the
// ring is unsynchronized and owned by one goroutine — recording is an
// index increment and an array store, no locks and no allocation — and it
// is only read from that same goroutine (a job's recover handler) or after
// the shard has quiesced.
package obs

import (
	"fmt"
	"time"
)

// flightDepth is the ring capacity: the newest flightDepth span records
// survive. 64 covers a panicking job's recent history (job span + nested
// taint fixpoints) without measurable memory cost per worker.
const flightDepth = 64

// flightRec is one recorded span: end stays 0 until the span ends, so a
// dump distinguishes in-flight work (the usual suspect) from completed
// work.
type flightRec struct {
	cat, name  string
	start, end int64 // ns since the shard ring was created
}

// flightRing is the fixed-capacity record buffer. seq counts pushes ever;
// the live window is [seq-flightDepth, seq).
type flightRing struct {
	clock func() int64
	seq   uint64
	recs  [flightDepth]flightRec
}

func newFlightRing(clock func() int64) *flightRing {
	return &flightRing{clock: clock}
}

// push records a span start and returns its 1-based token for end.
func (r *flightRing) push(cat, name string) uint64 {
	r.recs[r.seq%flightDepth] = flightRec{cat: cat, name: name, start: r.clock()}
	r.seq++
	return r.seq
}

// end closes the span with the given token, unless the ring has already
// wrapped past its slot.
func (r *flightRing) end(tok uint64) {
	if tok == 0 || r.seq >= tok+flightDepth {
		return
	}
	r.recs[(tok-1)%flightDepth].end = r.clock()
}

// dump renders the live window oldest-first, one line per record. Spans
// still in flight render with "…" in place of an end time.
func (r *flightRing) dump() []string {
	if r == nil || r.seq == 0 {
		return nil
	}
	first := uint64(0)
	if r.seq > flightDepth {
		first = r.seq - flightDepth
	}
	out := make([]string, 0, r.seq-first)
	for i := first; i < r.seq; i++ {
		rec := r.recs[i%flightDepth]
		if rec.end >= rec.start && rec.end > 0 {
			out = append(out, fmt.Sprintf("%s %s %dns+%dns", rec.cat, rec.name, rec.start, rec.end-rec.start))
		} else {
			out = append(out, fmt.Sprintf("%s %s %dns+…", rec.cat, rec.name, rec.start))
		}
	}
	return out
}

// FlightDump returns the shard's recent span history, oldest first, or nil
// when the flight recorder is not armed. Call only from the shard's owning
// goroutine (e.g. inside a job's recover handler) or after it has
// quiesced.
func (s *Shard) FlightDump() []string {
	if s == nil {
		return nil
	}
	return s.ring.dump()
}

// EnableFlight arms the flight recorder: the collector's coordinator track
// and every shard created afterwards keep a flightDepth-deep ring of
// recent spans (phases on the coordinator, jobs and fixpoints on shards).
// Off by default — records carry wall-clock offsets, so recorded history
// must never leak into deterministic outputs unless asked for.
func (c *Collector) EnableFlight() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.flight = true
	if c.ring == nil {
		start := c.start
		c.ring = newFlightRing(func() int64 { return time.Since(start).Nanoseconds() })
	}
	c.mu.Unlock()
}

// FlightEnabled reports whether EnableFlight has been called.
func (c *Collector) FlightEnabled() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flight
}

// FlightDump returns the coordinator ring's recent history (phase-level
// spans), oldest first.
func (c *Collector) FlightDump() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.dump()
}
