package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestHistBucketLayout(t *testing.T) {
	// Every bucket's values must map back to that bucket, and upper bounds
	// must be strictly increasing.
	if got := histBucketOf(0); got != 0 {
		t.Fatalf("histBucketOf(0) = %d, want 0", got)
	}
	if got := histBucketOf(1023); got != 0 {
		t.Fatalf("histBucketOf(1023) = %d, want 0 (underflow)", got)
	}
	if got := histBucketOf(1024); got != 1 {
		t.Fatalf("histBucketOf(1024) = %d, want 1 (first octave bucket)", got)
	}
	if got := histBucketOf(1 << 62); got != HistBuckets-1 {
		t.Fatalf("histBucketOf(2^62) = %d, want overflow %d", got, HistBuckets-1)
	}
	prev := int64(0)
	for i := 0; i < HistBuckets-1; i++ {
		up := HistBucketUpperNS(i)
		if up <= prev {
			t.Fatalf("bucket %d upper %d not > previous %d", i, up, prev)
		}
		// A value just below the upper bound must land in bucket <= i, and
		// the upper bound itself must land strictly above i.
		if b := histBucketOf(up - 1); b > i {
			t.Errorf("value %d (below bucket %d bound) mapped to bucket %d", up-1, i, b)
		}
		if b := histBucketOf(up); b <= i {
			t.Errorf("value %d (bucket %d bound) mapped to bucket %d, want > %d", up, i, b, i)
		}
		prev = up
	}
	if up := HistBucketUpperNS(HistBuckets - 1); up != -1 {
		t.Fatalf("overflow bucket upper = %d, want -1", up)
	}
}

func TestHistObserveAndSnapshot(t *testing.T) {
	var h Hist
	vals := []int64{500, 2_000, 2_000, 50_000, int64(2 * time.Second)}
	var sum int64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	h.Observe(-5) // clamped to 0, counts in underflow
	s := h.snapshot()
	if s.Count != int64(len(vals))+1 {
		t.Fatalf("Count = %d, want %d", s.Count, len(vals)+1)
	}
	if s.SumNS != sum {
		t.Fatalf("SumNS = %d, want %d", s.SumNS, sum)
	}
	if s.MaxNS != int64(2*time.Second) {
		t.Fatalf("MaxNS = %d, want %d", s.MaxNS, int64(2*time.Second))
	}
	if s.P99NS != s.MaxNS {
		t.Fatalf("P99NS = %d, want max %d (6 samples → p99 is the max bucket)", s.P99NS, s.MaxNS)
	}
	if s.P50NS <= 0 || s.P50NS > 50_000 {
		t.Fatalf("P50NS = %d, want a mid-distribution bound", s.P50NS)
	}
	var n int64
	for _, b := range s.Buckets {
		n += b.N
	}
	if n != s.Count {
		t.Fatalf("bucket occupancy %d != count %d", n, s.Count)
	}
}

func TestHistQuantileExact(t *testing.T) {
	// 100 observations of exactly 1024ns: every quantile bound must cover
	// the value, and p50 == p99 (single-bucket distribution, clamped to max).
	var h Hist
	for i := 0; i < 100; i++ {
		h.Observe(1024)
	}
	s := h.snapshot()
	if s.P50NS != s.P99NS {
		t.Fatalf("single-bucket distribution: p50 %d != p99 %d", s.P50NS, s.P99NS)
	}
	if s.P50NS != 1024 {
		t.Fatalf("p50 = %d, want clamp to max 1024", s.P50NS)
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	var a, b Hist
	for i := 0; i < 90; i++ {
		a.Observe(1_000)
	}
	for i := 0; i < 10; i++ {
		b.Observe(1_000_000)
	}
	sa, sb := a.snapshot(), b.snapshot()
	sa.Merge(sb)
	if sa.Count != 100 {
		t.Fatalf("merged Count = %d, want 100", sa.Count)
	}
	if sa.MaxNS != sb.MaxNS {
		t.Fatalf("merged MaxNS = %d, want %d", sa.MaxNS, sb.MaxNS)
	}
	if sa.P50NS >= 1_000_000 {
		t.Fatalf("p50 = %d, want below the slow tail", sa.P50NS)
	}
	if sa.P99NS != sa.MaxNS {
		t.Fatalf("p99 = %d, want the slow tail max %d", sa.P99NS, sa.MaxNS)
	}
	// Merge must be equivalent to observing everything in one histogram.
	var all Hist
	for i := 0; i < 90; i++ {
		all.Observe(1_000)
	}
	for i := 0; i < 10; i++ {
		all.Observe(1_000_000)
	}
	want, _ := json.Marshal(all.snapshot())
	got, _ := json.Marshal(sa)
	if string(got) != string(want) {
		t.Fatalf("merged snapshot != direct snapshot\n got %s\nwant %s", got, want)
	}
}

func TestHistCumulative(t *testing.T) {
	var h Hist
	h.Observe(1024)
	h.Observe(1024)
	h.Observe(1 << 40) // overflow bucket
	cum := h.snapshot().Cumulative()
	if len(cum) == 0 {
		t.Fatal("empty cumulative")
	}
	last := cum[len(cum)-1]
	if last.Idx != HistBuckets-1 || last.N != 3 {
		t.Fatalf("final cumulative bucket = %+v, want {%d 3}", last, HistBuckets-1)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i].N < cum[i-1].N || cum[i].Idx <= cum[i-1].Idx {
			t.Fatalf("cumulative not monotonic at %d: %+v", i, cum)
		}
	}
	if (&HistSnapshot{}).Cumulative()[0].N != 0 {
		t.Fatal("empty snapshot cumulative should end at 0")
	}
}

func TestShardObserveDrain(t *testing.T) {
	c := NewCollector()
	s1, s2 := c.NewShard(), c.NewShard()
	s1.Observe(HistSliceJob, 2_000)
	s1.Observe(HistSliceJob, 3_000)
	s2.Observe(HistSliceJob, 4_000)
	c.Drain(s1)
	c.Drain(s2)
	c.Observe(HistAnalyze, 10_000)
	p := c.Snapshot()
	sj := p.Hists[HistSliceJob]
	if sj == nil || sj.Count != 3 || sj.SumNS != 9_000 {
		t.Fatalf("slice_job snapshot = %+v, want count 3 sum 9000", sj)
	}
	if an := p.Hists[HistAnalyze]; an == nil || an.Count != 1 {
		t.Fatalf("analyze snapshot = %+v, want count 1", an)
	}
	if names := p.HistNames(); len(names) != 2 || names[0] != HistAnalyze {
		t.Fatalf("HistNames = %v", names)
	}
}

func TestHistNilSafety(t *testing.T) {
	var c *Collector
	var s *Shard
	var snap *HistSnapshot
	c.Observe("x", 1)
	s.Observe("x", 1)
	snap.Merge(&HistSnapshot{})
	(&HistSnapshot{}).Merge(nil)
	if snap.Quantile(0.5) != 0 {
		t.Fatal("nil snapshot quantile should be 0")
	}
	if snap.Cumulative() != nil {
		t.Fatal("nil snapshot cumulative should be nil")
	}
	var p *Profile
	if p.HistNames() != nil {
		t.Fatal("nil profile hist accessors should be zero")
	}
}

func TestCollectorPhaseRecordsHistogram(t *testing.T) {
	c := NewCollector()
	done := c.Phase(PhaseSlice)
	time.Sleep(time.Millisecond)
	done()
	p := c.Snapshot()
	h := p.Hists[HistPhasePrefix+PhaseSlice]
	if h == nil || h.Count != 1 {
		t.Fatalf("phase histogram = %+v, want one observation", h)
	}
	if h.SumNS != p.phase(PhaseSlice).Nanoseconds() {
		t.Fatalf("phase hist sum %d != phase duration %d", h.SumNS, p.phase(PhaseSlice).Nanoseconds())
	}
}

func TestProfileMergeHists(t *testing.T) {
	mk := func(v int64) *Profile {
		c := NewCollector()
		c.Observe(HistAnalyze, v)
		return c.Snapshot()
	}
	p := mk(1_000)
	p.Merge(mk(5_000))
	h := p.Hists[HistAnalyze]
	if h == nil || h.Count != 2 || h.SumNS != 6_000 || h.MaxNS != 5_000 {
		t.Fatalf("merged profile hist = %+v", h)
	}
	// Merging into a profile with no hists must deep-initialize.
	empty := &Profile{}
	empty.Merge(p)
	if got := empty.Hists[HistAnalyze]; got == nil || got.Count != 2 {
		t.Fatalf("merge into empty profile = %+v", got)
	}
}
