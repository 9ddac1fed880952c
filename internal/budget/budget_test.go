package budget

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var b *Budget
	if b.Over(PhaseSlice, "x") != nil || b.SliceExhausted("x") != nil {
		t.Fatal("nil budget reported exhaustion")
	}
	if b.Hang(PhaseTaint, "x") {
		t.Fatal("nil budget hangs")
	}
	b.MaybePanic(PhaseTaint, "x") // must not panic
	ck := b.Checker(PhaseTaint, "x")
	if ck != nil {
		t.Fatal("nil budget handed out a checker")
	}
	for i := 0; i < 1000; i++ {
		if err := ck.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if ck.Exceeded() != nil {
		t.Fatal("nil checker exceeded")
	}
	var inj *FaultInjector
	if inj.Probe(PhaseSlice, "x") != FaultNone {
		t.Fatal("nil injector fired")
	}
	inj.MaybePanic(PhaseSlice, "x")
}

func TestFixpointIterLimit(t *testing.T) {
	b := New(Limits{FixpointIters: 10})
	ck := b.Checker(PhaseTaint, "m")
	var err error
	steps := 0
	for err == nil && steps < 100 {
		err = ck.Step()
		steps++
	}
	if err == nil {
		t.Fatal("limit never tripped")
	}
	if !IsExceeded(err) {
		t.Fatalf("err = %v, want *Exceeded", err)
	}
	var ex *Exceeded
	errors.As(err, &ex)
	if ex.Limit != LimitFixpointIters || ex.Phase != PhaseTaint || ex.Site != "m" {
		t.Fatalf("wrong error detail: %+v", ex)
	}
	// Sticky: later steps keep returning the same error.
	if err2 := ck.Step(); err2 != err {
		t.Fatalf("error not sticky: %v vs %v", err2, err)
	}
	if ck.Exceeded() != ex {
		t.Fatal("Exceeded() disagrees with Step error")
	}
}

func TestSliceStepPoolSharedAcrossCheckers(t *testing.T) {
	b := New(Limits{SliceSteps: 30})
	c1 := b.Checker(PhaseSlice, "job1")
	for i := 0; i < 20; i++ {
		if err := c1.Step(); err != nil {
			t.Fatalf("c1 step %d: %v", i, err)
		}
	}
	if ex := b.SliceExhausted("job2"); ex != nil {
		t.Fatalf("pool exhausted too early: %v", ex)
	}
	c2 := b.Checker(PhaseSlice, "job2")
	var err error
	for i := 0; i < 20 && err == nil; i++ {
		err = c2.Step()
	}
	if err == nil {
		t.Fatal("shared pool never exhausted")
	}
	var ex *Exceeded
	if !errors.As(err, &ex) || ex.Limit != LimitSliceSteps {
		t.Fatalf("err = %v, want slice_steps exhaustion", err)
	}
	if b.SliceExhausted("job3") == nil {
		t.Fatal("boundary check missed exhausted pool")
	}
	// Non-slice checkers must not drain the pool.
	b2 := New(Limits{SliceSteps: 5})
	ct := b2.Checker(PhaseTaint, "pairing-flow")
	for i := 0; i < 50; i++ {
		if err := ct.Step(); err != nil {
			t.Fatalf("taint checker drained slice pool: %v", err)
		}
	}
}

func TestDeadlineAndCancel(t *testing.T) {
	b := New(Limits{Deadline: time.Now().Add(-time.Second)})
	if ex := b.Over(PhasePairing, "p"); ex == nil || ex.Limit != LimitDeadline {
		t.Fatalf("expired deadline not reported: %v", ex)
	}
	ck := b.Checker(PhaseTaint, "m")
	var err error
	for i := 0; i < 10*checkStride && err == nil; i++ {
		err = ck.Step()
	}
	var ex *Exceeded
	if !errors.As(err, &ex) || ex.Limit != LimitDeadline {
		t.Fatalf("checker missed expired deadline: %v", err)
	}

	ch := make(chan struct{})
	bc := New(Limits{Cancel: ch})
	if bc.Over(PhaseSlice, "s") != nil {
		t.Fatal("open cancel channel reported as cancelled")
	}
	close(ch)
	if ex := bc.Over(PhaseSlice, "s"); ex == nil || ex.Limit != LimitCancel {
		t.Fatalf("cancellation not reported: %v", ex)
	}
}

func TestFaultInjectorAddressing(t *testing.T) {
	inj := NewFaultInjector(
		Fault{Phase: PhaseSlice, Site: "target", Kind: FaultPanic, Once: true},
		Fault{Phase: PhaseTaint, After: 2, Kind: FaultHang},
	)
	if inj.Probe(PhaseSlice, "other.method") != FaultNone {
		t.Fatal("site filter ignored")
	}
	if inj.Probe(PhaseSigbuild, "target.method") != FaultNone {
		t.Fatal("phase filter ignored")
	}
	if inj.Probe(PhaseSlice, "app.target.method") != FaultPanic {
		t.Fatal("matching probe did not fire")
	}
	if inj.Probe(PhaseSlice, "app.target.method") != FaultNone {
		t.Fatal("Once rule fired twice")
	}
	// After=2: third matching probe fires, then keeps firing (not Once).
	if inj.Probe(PhaseTaint, "a") != FaultNone || inj.Probe(PhaseTaint, "b") != FaultNone {
		t.Fatal("After skipped too few probes")
	}
	if inj.Probe(PhaseTaint, "c") != FaultHang || inj.Probe(PhaseTaint, "d") != FaultHang {
		t.Fatal("After rule did not fire from the third probe on")
	}
}

func TestMaybePanicValue(t *testing.T) {
	inj := NewFaultInjector(Fault{Phase: PhaseSigbuild, Kind: FaultPanic})
	defer func() {
		r := recover()
		ip, ok := r.(*InjectedPanic)
		if !ok {
			t.Fatalf("panic value %v (%T), want *InjectedPanic", r, r)
		}
		if ip.Phase != PhaseSigbuild || ip.Site != "dp@3" {
			t.Fatalf("wrong panic payload: %+v", ip)
		}
		if got := fmt.Sprintf("%v", r); got != "injected panic (sigbuild @ dp@3)" {
			t.Fatalf("unstable rendering: %q", got)
		}
	}()
	inj.MaybePanic(PhaseSigbuild, "dp@3")
	t.Fatal("unreachable")
}

func TestDiagnosticsRender(t *testing.T) {
	d := PanicDiag(PhaseSlice, "job", "boom")
	if d.String() != "[slice/panic] job: boom" {
		t.Fatalf("panic diag = %q", d.String())
	}
	e := &Exceeded{Phase: PhaseTaint, Limit: LimitDeadline, Site: "m", Steps: 512}
	if got := ExceededDiag(e); got.Kind != DiagBudget || got.Detail != LimitDeadline {
		t.Fatalf("exceeded diag = %+v", got)
	}
	if got := SkippedDiag(PhaseSlice, "ep->dp", "slice_steps"); got.Kind != DiagSkipped {
		t.Fatalf("skipped diag = %+v", got)
	}
}
