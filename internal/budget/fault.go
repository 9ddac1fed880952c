package budget

import (
	"fmt"
	"strings"
	"sync"
)

// Kind is the behavior an armed fault forces at a probe point.
type Kind uint8

const (
	// FaultNone means no fault fires.
	FaultNone Kind = iota
	// FaultPanic makes the probe panic with an *InjectedPanic value.
	FaultPanic
	// FaultHang makes the probed fixpoint diverge: the loop spins through
	// its Checker until a deadline or step budget stops it.
	FaultHang
)

func (k Kind) String() string {
	switch k {
	case FaultPanic:
		return "panic"
	case FaultHang:
		return "hang"
	}
	return "none"
}

// Fault is one injection rule, addressed by pipeline phase and probe site.
type Fault struct {
	// Phase selects the probe family ("decode", "slice", "taint",
	// "sigbuild", "pairing", ...).
	Phase string
	// Site, when non-empty, arms the rule only at probe sites containing
	// this substring (method references, DP ids); empty matches every site.
	Site string
	// After skips the first After matching probes before firing —
	// seed-addressing a fault at the N-th slice job or fixpoint.
	After int
	// Once disarms the rule after its first firing.
	Once bool
	// Kind is what happens when the rule fires.
	Kind Kind
}

// InjectedPanic is the value injected panics carry, so recovery sites and
// diagnostics can render a deterministic description.
type InjectedPanic struct {
	Phase string
	Site  string
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("injected panic (%s @ %s)", p.Phase, p.Site)
}

// FaultInjector evaluates fault rules at pipeline probe points. Probes are
// cheap rule scans under a mutex (probes fire per job or per fixpoint, not
// per loop iteration), and firing is deterministic given a deterministic
// probe order. core.Analyze runs every phase's jobs one after another in
// job order, so counted rules (After, Once) fire on the same job in every
// run of the same binary and options; concurrent Analyze calls must not
// share one injector. A nil *FaultInjector never fires.
type FaultInjector struct {
	mu    sync.Mutex
	rules []*faultRule
}

type faultRule struct {
	Fault
	probes int
	fired  bool
}

// NewFaultInjector arms the given rules.
func NewFaultInjector(faults ...Fault) *FaultInjector {
	inj := &FaultInjector{}
	for _, f := range faults {
		inj.rules = append(inj.rules, &faultRule{Fault: f})
	}
	return inj
}

// Probe evaluates the rules at one (phase, site) point and returns the
// first kind that fires.
func (i *FaultInjector) Probe(phase, site string) Kind {
	if i == nil {
		return FaultNone
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, r := range i.rules {
		if r.Phase != phase {
			continue
		}
		if r.Site != "" && !strings.Contains(site, r.Site) {
			continue
		}
		r.probes++
		if r.probes <= r.After {
			continue
		}
		if r.Once && r.fired {
			continue
		}
		r.fired = true
		if r.Kind != FaultNone {
			return r.Kind
		}
	}
	return FaultNone
}

// MaybePanic panics with an *InjectedPanic if a FaultPanic rule fires here.
func (i *FaultInjector) MaybePanic(phase, site string) {
	if i.Probe(phase, site) == FaultPanic {
		panic(&InjectedPanic{Phase: phase, Site: site})
	}
}
