// Flight recorder: the newest span records of each track, kept even when
// full tracing is off, so that when the budget layer recovers a panic or a
// deadline fires, the diagnostic can say what the phase was doing in its
// last moments. The records are the track's span store (see trace.go): a
// flightDepth-deep ring when no tracer is attached — recording is an index
// increment and an array store, no locks and no allocation — and the
// tracer's own unbounded store otherwise. A shard's history is only read
// from its owning goroutine (a job's recover handler) or after the shard
// has quiesced.
package obs

import "fmt"

// flightDepth is the dump window and the ring capacity: the newest
// flightDepth span records survive. 64 covers a panicking job's recent
// history (job span + nested taint fixpoints) without measurable memory
// cost per shard.
const flightDepth = 64

// dump renders the newest flightDepth records oldest-first, one line per
// record, or nil when the store is absent or not a flight recorder. Spans
// still in flight render with "…" in place of an end time.
func (st *spanStore) dump() []string {
	if st == nil || !st.flight || st.n == 0 {
		return nil
	}
	first := uint64(0)
	if st.n > flightDepth {
		first = st.n - flightDepth
	}
	out := make([]string, 0, st.n-first)
	for i := first; i < st.n; i++ {
		rec := st.slot(i)
		if rec.end >= rec.start {
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
	return s.spans.dump()
}

// EnableFlight arms the flight recorder: the collector's coordinator track
// and every shard created afterwards keep their recent spans (the run and
// phases on the coordinator, jobs and fixpoints on shards) for FlightDump.
// Off by default — records carry wall-clock offsets, so recorded history
// must never leak into deterministic outputs unless asked for.
func (c *Collector) EnableFlight() {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.spans == nil {
		c.spans = newRing(c.start)
	}
	c.spans.flight = true
	c.mu.Unlock()
}

// FlightDump returns the coordinator track's recent history (the run and
// phase spans), oldest first.
func (c *Collector) FlightDump() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans.dump()
}
