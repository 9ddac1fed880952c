package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sampler reads the process counters around each operation.
type sampler struct{ s []metrics.Sample }

func newSampler() *sampler {
	return &sampler{s: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}}
}

// reading is a point-in-time snapshot of the counters an operation moves.
type reading struct {
	cpu            time.Duration
	bytes, objects uint64
}

func (s *sampler) read() reading {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(s.s)
	return reading{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		bytes:   s.s[0].Value.Uint64(),
		objects: s.s[1].Value.Uint64(),
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// opSample is one app-level operation of the closed loop.
type opSample struct {
	app    int
	traced bool
	ms     float64
	cpu    time.Duration
	bytes  uint64
	allocs uint64
	items  int
}

// loop is the closed-loop client: one operation at a time, apps in a
// seed-shuffled order that is redrawn for every pass over the set.
type loop struct {
	w      *workload
	rng    *rand.Rand
	smp    *sampler
	tr     *tracer // nil in untraced runs
	ops    []opSample
	passes [][]int // indexes into ops, one slice per complete pass
	failed int
	errs   []string
	first  map[int]counts // counts of the first traced pass, by app
}

func newLoop(w *workload) *loop {
	return &loop{w: w, rng: rand.New(rand.NewSource(int64(w.seed))), smp: newSampler()}
}

func (l *loop) fail(err error) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// pass runs the apps once in a fresh order, stopping early at deadline
// (zero means no deadline). It reports whether the pass completed, and
// the results of a traced pass, by op index, for the accounting chain.
func (l *loop) pass(traced bool, deadline time.Time) (bool, map[int]*result) {
	var idx []int
	var results map[int]*result
	if traced {
		results = map[int]*result{}
	}
	for _, i := range l.rng.Perm(len(l.w.apps)) {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return false, results
		}
		idx = append(idx, len(l.ops))
		if r := l.one(i, traced); r != nil && traced {
			results[len(l.ops)-1] = r
		}
	}
	l.passes = append(l.passes, idx)
	return true, results
}

// one runs and checks one operation and returns its result, nil when it
// failed.
func (l *loop) one(i int, traced bool) *result {
	a := l.w.apps[i]
	var tr *tracer
	if traced {
		tr = l.tr
		tr.app = len(l.ops)
	}
	before := l.smp.read()
	tr.begin(spanOp)
	t0 := time.Now()
	r, err := l.w.op(a, tr)
	d := time.Since(t0)
	tr.end()
	after := l.smp.read()
	s := opSample{app: i, traced: traced, ms: float64(d.Nanoseconds()) / 1e6,
		cpu: after.cpu - before.cpu, bytes: after.bytes - before.bytes, allocs: after.objects - before.objects}
	if err == nil {
		s.items = r.items
		err = l.w.check(a, r)
	}
	l.ops = append(l.ops, s)
	if err != nil {
		l.fail(err)
		return nil
	}
	return r
}

// untraced measures for dur with tracing off.
func (l *loop) untraced(dur time.Duration) {
	for deadline := time.Now().Add(dur); ; {
		if done, _ := l.pass(false, deadline); !done {
			return
		}
	}
}

// traced repeats rounds until dur has passed, at least once.
func (l *loop) traced(dur time.Duration) {
	l.tr = newTracer()
	deadline := time.Now().Add(dur)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		l.round()
	}
}

// round is one untraced pass, one traced pass, and the accounting chain
// for each operation of the traced pass. Interleaving gives per-layer
// times and the tracing overhead over the same apps under the same
// conditions. The accounting chain runs after the traced pass, and a
// collection follows it, so its garbage is not collected during the next
// pass's operations. Counts are kept from the first round.
func (l *loop) round() {
	l.pass(false, time.Time{})
	_, results := l.pass(true, time.Time{})
	first := l.first == nil
	if first {
		l.first = map[int]counts{}
	}
	for _, op := range l.passes[len(l.passes)-1] {
		r := results[op]
		if r == nil {
			continue
		}
		i := l.ops[op].app
		l.tr.app = op
		c, err := l.w.account(l.w.apps[i], r, l.tr)
		if err != nil {
			l.fail(err)
		} else if first {
			l.first[i] = c
		}
	}
	runtime.GC()
}

// median returns the middle of vs (mean of the two middles); vs is sorted
// in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// percentile is the nearest-rank p-quantile of vs; vs is sorted in place.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	k := int(p*float64(len(vs))+0.999999999) - 1
	return vs[max(0, min(k, len(vs)-1))]
}

// spread is the interquartile range of vs as a share of its median, the
// same statistic the acceptance check applies across runs.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	cp := append([]float64(nil), vs...)
	m := median(cp)
	if m == 0 {
		return 0
	}
	return (quartile(cp, 3) - quartile(cp, 1)) / m
}

// quartile matches Python's statistics.quantiles(n=4) default (exclusive)
// method on sorted vs.
func quartile(vs []float64, q int) float64 {
	n := len(vs)
	pos := float64(q*(n+1)) / 4
	j := int(pos)
	switch {
	case j < 1:
		return vs[0]
	case j >= n:
		return vs[n-1]
	}
	return vs[j-1] + (pos-float64(j))*(vs[j]-vs[j-1])
}
