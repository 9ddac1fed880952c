// Structured event log: a JSONL stream of pipeline lifecycle events
// (run/phase start+end, cache hits, budget exceedances, diagnostics) with
// monotonic sequence numbers. Where the Chrome trace export (-trace) is a
// post-mortem timeline and /metrics is an aggregate, the event log is the
// replayable record: each line is one JSON object with a fixed field order
// (struct marshaling), so two runs over equal work produce structurally
// identical streams up to timing fields.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event types emitted by the pipeline.
const (
	EvRunStart   = "run_start"
	EvRunEnd     = "run_end"
	EvPhaseStart = "phase_start"
	EvPhaseEnd   = "phase_end"
	EvCacheHit   = "cache_hit"
	EvCacheStore = "cache_store"
	EvDiagnostic = "diagnostic"
)

// Event is one JSONL record. Field order is fixed by the struct, so the
// serialized form is deterministic; Seq is monotonic per log and TNS is
// nanoseconds since the log was opened (epoch-relative, not wall clock, so
// streams diff cleanly across machines).
type Event struct {
	Seq    int64  `json:"seq"`
	TNS    int64  `json:"t_ns"`
	Type   string `json:"type"`
	App    string `json:"app,omitempty"`
	Phase  string `json:"phase,omitempty"`
	Site   string `json:"site,omitempty"`
	Detail string `json:"detail,omitempty"`
	DurNS  int64  `json:"dur_ns,omitempty"`
}

// EventLog writes events as JSON lines. All methods are safe for
// concurrent use and a nil *EventLog is a no-op. A Registry carries at
// most one (Registry.LogEvents), and every collector attached to that
// registry emits through it.
type EventLog struct {
	epoch time.Time

	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	seq int64
	err error
}

// NewEventLog wraps w. If w is also an io.Closer, Close closes it.
func NewEventLog(w io.Writer) *EventLog {
	l := &EventLog{epoch: time.Now(), w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		l.c = c
	}
	return l
}

// Emit writes one event, stamping Seq and TNS. Write errors are sticky and
// surfaced by Close; emission never fails the pipeline.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	l.seq++
	e.Seq = l.seq
	e.TNS = time.Since(l.epoch).Nanoseconds()
	data, err := json.Marshal(e)
	if err != nil {
		l.err = err
		return
	}
	if _, err := l.w.Write(data); err != nil {
		l.err = err
		return
	}
	if err := l.w.WriteByte('\n'); err != nil {
		l.err = err
	}
}

// Close flushes the stream, closes the underlying writer when it is a
// Closer, and returns the first error encountered over the log's lifetime.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if ferr := l.w.Flush(); l.err == nil {
		l.err = ferr
	}
	if l.c != nil {
		if cerr := l.c.Close(); l.err == nil {
			l.err = cerr
		}
		l.c = nil
	}
	return l.err
}
