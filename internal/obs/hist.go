// Latency histograms: the distribution side of the observability layer.
// The Collector's phase timers report sums, and sums hide tail latency —
// one 900ms slice job inside a 30s corpus run is invisible until it is the
// only thing the fleet operator needs to see. A Hist is a fixed-bucket
// log-linear histogram (HdrHistogram-style: every power-of-two octave is
// split into a few linear sub-buckets) sized so that recording is one
// array increment — no allocation, no locking on the per-worker shards —
// and merging is element-wise addition, exactly like the counter shards.
//
// The bucket layout is part of the exposition format (Prometheus `le`
// bounds) and of Profile JSON, so it is fixed at compile time: bucket 0 is
// the underflow below ~1µs, then histOctaves octaves of histSubBuckets
// linear sub-buckets from 2^histMinExp ns upward, then one overflow bucket.
// That spans ~1µs to ~2.3 minutes at ≤ 25% relative error — per-entry
// classify latencies at the bottom, whole-corpus phase times at the top.
package obs

import (
	"math/bits"
	"sort"
)

// Histogram names recorded by the pipeline. Per-phase duration histograms
// use HistPhasePrefix + the phase name; everything else is a fixed name.
const (
	// HistPhasePrefix prefixes the per-phase duration histograms (one
	// observation per phase per run; corpus-merged profiles accumulate the
	// per-app distribution).
	HistPhasePrefix = "phase_"
	// HistAnalyze is the whole-run Analyze wall time.
	HistAnalyze = "analyze"
	// HistSliceJob / HistSigbuildJob are per-job latencies.
	HistSliceJob    = "slice_job"
	HistSigbuildJob = "sigbuild_job"
	// HistClassifyEntry is the per-entry traffic-classification latency
	// (see trace.Classify).
	HistClassifyEntry = "classify_entry"
)

// Bucket-layout constants. histMinExp = 10 puts the first octave at
// 1024ns; histSubBits = 2 gives 4 linear sub-buckets per octave (25%
// relative resolution); histOctaves = 27 reaches 2^37 ns ≈ 137s before
// the overflow bucket.
const (
	histMinExp     = 10
	histSubBits    = 2
	histSubBuckets = 1 << histSubBits
	histOctaves    = 27
	// HistBuckets is the fixed bucket count: underflow + octaves + overflow.
	HistBuckets = 1 + histOctaves*histSubBuckets + 1
)

// histBucketOf maps a nanosecond value to its bucket index.
func histBucketOf(v int64) int {
	if v < 1<<histMinExp {
		return 0
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v) >= histMinExp
	if exp >= histMinExp+histOctaves {
		return HistBuckets - 1
	}
	sub := int(v>>(uint(exp)-histSubBits)) & (histSubBuckets - 1)
	return 1 + (exp-histMinExp)*histSubBuckets + sub
}

// HistBucketUpperNS returns the exclusive upper bound of bucket idx in
// nanoseconds; the overflow bucket returns -1 (unbounded, `le="+Inf"`).
func HistBucketUpperNS(idx int) int64 {
	if idx <= 0 {
		return 1 << histMinExp
	}
	if idx >= HistBuckets-1 {
		return -1
	}
	idx--
	exp := histMinExp + idx/histSubBuckets
	sub := idx % histSubBuckets
	return (int64(histSubBuckets+sub) + 1) << (uint(exp) - histSubBits)
}

// Hist is one mutable histogram: the fixed bucket array plus exact count,
// sum and max. It is always owned by exactly one goroutine (a Shard) or
// guarded by the Collector's mutex, mirroring the counter maps.
type Hist struct {
	count   int64
	sum     int64
	max     int64
	buckets [HistBuckets]int64
}

// Observe records one nanosecond measurement: three scalar updates and one
// array increment, nothing else — the zero-allocation contract is pinned
// by BenchmarkHistogramRecord.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[histBucketOf(v)]++
}

// merge adds o into h.
func (h *Hist) merge(o *Hist) {
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	for i := range o.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// HistBucket is one non-empty bucket of a frozen histogram: the bucket
// index into the fixed layout and its occupancy. Snapshots store only
// non-empty buckets so profile JSON stays proportional to the data.
type HistBucket struct {
	Idx int   `json:"i"`
	N   int64 `json:"n"`
}

// HistSnapshot is an immutable frozen histogram embedded in Profile: the
// derived latency quantiles (refreshed on every merge) plus the sparse
// bucket list the quantiles are computed from.
type HistSnapshot struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	MaxNS int64 `json:"max_ns"`
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`

	Buckets []HistBucket `json:"buckets,omitempty"`
}

// snapshot freezes h.
func (h *Hist) snapshot() *HistSnapshot {
	s := &HistSnapshot{Count: h.count, SumNS: h.sum, MaxNS: h.max}
	for i, n := range h.buckets {
		if n != 0 {
			s.Buckets = append(s.Buckets, HistBucket{Idx: i, N: n})
		}
	}
	s.refreshQuantiles()
	return s
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// observation (clamped to the observed maximum, so Quantile(1) == MaxNS).
// Bucket bounds are deterministic, so equal data yields equal quantiles on
// every platform.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.N
		if cum >= rank {
			up := HistBucketUpperNS(b.Idx)
			if up < 0 || up > s.MaxNS {
				return s.MaxNS
			}
			return up
		}
	}
	return s.MaxNS
}

// refreshQuantiles recomputes the derived P50/P90/P99 fields.
func (s *HistSnapshot) refreshQuantiles() {
	s.P50NS = s.Quantile(0.50)
	s.P90NS = s.Quantile(0.90)
	s.P99NS = s.Quantile(0.99)
}

// Merge accumulates o into s (bucket-wise addition) and refreshes the
// quantile fields. Used by Profile.Merge to aggregate per-app histograms
// into corpus-wide distributions.
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	if s == nil || o == nil {
		return
	}
	s.Count += o.Count
	s.SumNS += o.SumNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	dense := map[int]int64{}
	for _, b := range s.Buckets {
		dense[b.Idx] += b.N
	}
	for _, b := range o.Buckets {
		dense[b.Idx] += b.N
	}
	s.Buckets = s.Buckets[:0]
	for idx, n := range dense {
		s.Buckets = append(s.Buckets, HistBucket{Idx: idx, N: n})
	}
	sort.Slice(s.Buckets, func(i, j int) bool { return s.Buckets[i].Idx < s.Buckets[j].Idx })
	s.refreshQuantiles()
}

// Cumulative returns the cumulative (bucket upper bound, count) pairs in
// ascending order — the Prometheus histogram exposition shape. The final
// pair has upper bound -1 (+Inf) and count == Count.
func (s *HistSnapshot) Cumulative() []HistBucket {
	if s == nil {
		return nil
	}
	out := make([]HistBucket, 0, len(s.Buckets)+1)
	var cum int64
	for _, b := range s.Buckets {
		cum += b.N
		out = append(out, HistBucket{Idx: b.Idx, N: cum})
	}
	if len(out) == 0 || out[len(out)-1].Idx != HistBuckets-1 {
		out = append(out, HistBucket{Idx: HistBuckets - 1, N: cum})
	}
	return out
}
