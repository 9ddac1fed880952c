// Package budget is the pipeline's robustness subsystem: wall-clock
// deadlines, cooperative cancellation, deterministic step budgets for the
// fixpoint loops, typed exhaustion errors, and the degradation diagnostics
// that replace crashes and hangs with per-transaction records in the report.
//
// The paper's toolchain survives pathological apps only through Soot's
// process-level timeouts; hostile bytecode (DexLego-style) aims precisely at
// decoder and fixpoint divergence. Here every long-running loop — taint
// worklists, abstract interpretation, slice extraction jobs, pairing flow
// checks — polls a Checker at its loop head and stops with a typed
// *Exceeded instead of running away. Exhaustion is not failure: the
// orchestrator drops only the affected transaction, records a Diagnostic,
// and ships the report with everything that completed.
//
// All entry points are nil-safe no-ops, so unbudgeted analyses pay one
// predictable-branch nil check per loop iteration and nothing else.
package budget

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Phase names used in budget errors, fault probes and diagnostics. They
// extend the internal/obs phase vocabulary with the decode stage, which
// runs before a Collector exists.
const (
	PhaseDecode   = "decode"
	PhaseValidate = "validate"
	PhaseSlice    = "slice"
	PhaseTaint    = "taint"
	PhasePairing  = "pairing"
	PhaseSigbuild = "sigbuild"
	PhaseTxdep    = "txdep"
	// PhaseCache is the persistent result-cache lookup/store stage that
	// brackets the pipeline (see internal/resultcache).
	PhaseCache = "cache"
)

// Limit names identifying which budget an *Exceeded tripped.
const (
	LimitDeadline      = "deadline"
	LimitCancel        = "cancelled"
	LimitSliceSteps    = "slice_steps"
	LimitFixpointIters = "fixpoint_iters"
)

// Exceeded is the typed error every budget check returns: which phase hit
// which limit, at which pipeline site, after how many steps.
type Exceeded struct {
	Phase string
	Limit string
	Site  string
	Steps int64
}

func (e *Exceeded) Error() string {
	return fmt.Sprintf("budget: %s exceeded in %s phase at %s after %d steps",
		e.Limit, e.Phase, e.Site, e.Steps)
}

// IsExceeded reports whether err is (or wraps) a budget exhaustion.
func IsExceeded(err error) bool {
	var e *Exceeded
	return errors.As(err, &e)
}

// Recovered wraps a panic caught inside a pipeline worker, carrying enough
// context to turn it into a Diagnostic.
type Recovered struct {
	Phase string
	Site  string
	Value any
}

func (r *Recovered) Error() string {
	return fmt.Sprintf("budget: recovered panic in %s phase at %s: %v", r.Phase, r.Site, r.Value)
}

// Limits is the configured resource envelope of one analysis run.
type Limits struct {
	// Deadline is the absolute wall-clock bound; zero means unlimited.
	Deadline time.Time
	// Cancel aborts the run when closed; nil means not cancellable.
	Cancel <-chan struct{}
	// SliceSteps caps cumulative taint-propagation steps across the whole
	// slice phase (a shared pool, consumed in job order); 0 = unlimited.
	SliceSteps int64
	// FixpointIters caps the steps of any single fixpoint (one taint
	// worklist run, one abstract interpretation); 0 = unlimited.
	FixpointIters int64
}

// Budget is the live run-scoped state: the limits plus the shared
// slice-phase step pool and the optional fault injector. A nil *Budget is
// valid everywhere and means "unlimited, no faults".
type Budget struct {
	limits    Limits
	inj       *FaultInjector
	slicePool atomic.Int64
}

// New creates a budget over the given limits.
func New(l Limits) *Budget { return &Budget{limits: l} }

// WithFaults attaches a fault injector (tests only) and returns the budget.
func (b *Budget) WithFaults(inj *FaultInjector) *Budget {
	if b == nil {
		b = New(Limits{})
	}
	b.inj = inj
	return b
}

// Over reports deadline or cancellation exhaustion at a coarse checkpoint
// (job boundaries, phase starts). Nil when within budget.
func (b *Budget) Over(phase, site string) *Exceeded {
	if b == nil {
		return nil
	}
	if b.limits.Cancel != nil {
		select {
		case <-b.limits.Cancel:
			return &Exceeded{Phase: phase, Limit: LimitCancel, Site: site}
		default:
		}
	}
	if !b.limits.Deadline.IsZero() && time.Now().After(b.limits.Deadline) {
		return &Exceeded{Phase: phase, Limit: LimitDeadline, Site: site}
	}
	return nil
}

// SliceExhausted reports whether the cumulative slice-phase step pool is
// already spent (checked at job boundaries so exhaustion skips whole jobs).
func (b *Budget) SliceExhausted(site string) *Exceeded {
	if b == nil || b.limits.SliceSteps <= 0 {
		return nil
	}
	if n := b.slicePool.Load(); n >= b.limits.SliceSteps {
		return &Exceeded{Phase: PhaseSlice, Limit: LimitSliceSteps, Site: site, Steps: n}
	}
	return nil
}

// MaybePanic fires an injected panic if a matching fault rule is armed.
func (b *Budget) MaybePanic(phase, site string) {
	if b != nil {
		b.inj.MaybePanic(phase, site)
	}
}

// Hang reports whether an injected hang is armed for this probe point: the
// caller must then diverge (spinning through its Checker, which converts
// the divergence into an *Exceeded once a deadline or step budget trips).
func (b *Budget) Hang(phase, site string) bool {
	return b != nil && b.inj.Probe(phase, site) == FaultHang
}

// checkStride is how many Checker steps pass between deadline/cancel polls:
// frequent enough to stop within microseconds, rare enough that time.Now
// never shows up in a profile.
const checkStride = 256

// Checker bounds one fixpoint loop. It is single-goroutine state handed out
// per worklist run; a nil *Checker is a no-op so unbudgeted engines skip
// everything but one nil check.
type Checker struct {
	b     *Budget
	phase string
	site  string
	max   int64 // per-fixpoint step cap (0 = none)
	pool  bool  // whether steps also drain the shared slice pool
	steps int64
	err   *Exceeded
}

// Checker returns the loop-head checker for one fixpoint in the given
// phase. Slice-phase checkers also drain the shared slice-step pool.
func (b *Budget) Checker(phase, site string) *Checker {
	if b == nil {
		return nil
	}
	return &Checker{
		b:     b,
		phase: phase,
		site:  site,
		max:   b.limits.FixpointIters,
		pool:  phase == PhaseSlice && b.limits.SliceSteps > 0,
	}
}

// Step accounts one loop iteration and returns a non-nil error once any
// budget is exhausted. The error is sticky: every later Step returns it
// again, so loops may keep polling while unwinding.
func (c *Checker) Step() error {
	if c == nil {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	c.steps++
	if c.max > 0 && c.steps > c.max {
		c.err = &Exceeded{Phase: c.phase, Limit: LimitFixpointIters, Site: c.site, Steps: c.steps}
		return c.err
	}
	if c.pool {
		if n := c.b.slicePool.Add(1); n > c.b.limits.SliceSteps {
			c.err = &Exceeded{Phase: c.phase, Limit: LimitSliceSteps, Site: c.site, Steps: n}
			return c.err
		}
	}
	if c.steps&(checkStride-1) == 0 {
		if ex := c.b.Over(c.phase, c.site); ex != nil {
			ex.Steps = c.steps
			c.err = ex
			return c.err
		}
	}
	return nil
}

// Exceeded returns the budget error that stopped this checker, nil if none.
func (c *Checker) Exceeded() *Exceeded {
	if c == nil {
		return nil
	}
	return c.err
}

// Diagnostic kinds.
const (
	// DiagPanic records a worker panic recovered into a degraded result.
	DiagPanic = "panic"
	// DiagBudget records a loop stopped mid-flight by an exhausted budget
	// (the affected slice or signature is truncated and dropped).
	DiagBudget = "budget"
	// DiagSkipped records work never started because the budget was
	// already spent at the job boundary.
	DiagSkipped = "skipped"
	// DiagCache records a persistent result-cache entry that could not be
	// served (corrupt, truncated, wrong format version) or stored; the
	// analysis fell back to — or remained — a full recompute, so the report
	// itself is unaffected.
	DiagCache = "cache"
)

// Diagnostic is one degradation event surfaced in Report.Diagnostics: what
// the pipeline dropped, where, and why — so an exhausted run still tells
// the user exactly which transactions are missing.
type Diagnostic struct {
	Phase  string `json:"phase"`
	Kind   string `json:"kind"`
	Site   string `json:"site"`
	Detail string `json:"detail,omitempty"`

	// Flight is the recording goroutine's recent span history (oldest
	// first) at the moment a panic was recovered or a deadline fired —
	// populated only when the flight recorder was armed (core.Options.
	// Flight). Ring records carry wall-clock offsets, so the field is
	// excluded from String() and from diagnostic sort order, and degraded
	// reports are never cached, keeping default outputs deterministic.
	Flight []string `json:"flight,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("[%s/%s] %s", d.Phase, d.Kind, d.Site)
	if d.Detail != "" {
		s += ": " + d.Detail
	}
	return s
}

// PanicDiag converts a recovered panic value into a Diagnostic.
func PanicDiag(phase, site string, v any) Diagnostic {
	return Diagnostic{Phase: phase, Kind: DiagPanic, Site: site, Detail: fmt.Sprintf("%v", v)}
}

// ExceededDiag converts a budget error into a Diagnostic.
func ExceededDiag(e *Exceeded) Diagnostic {
	return Diagnostic{Phase: e.Phase, Kind: DiagBudget, Site: e.Site, Detail: e.Limit}
}

// SkippedDiag records work dropped before it started.
func SkippedDiag(phase, site, why string) Diagnostic {
	return Diagnostic{Phase: phase, Kind: DiagSkipped, Site: site, Detail: why}
}

// CacheDiag records an unusable or unwritable persistent-cache entry. The
// site is the content-addressed cache key the entry lived under.
func CacheDiag(site, why string) Diagnostic {
	return Diagnostic{Phase: PhaseCache, Kind: DiagCache, Site: site, Detail: why}
}
