// Property tests for the ByteStats accounting invariants of MatchResult,
// holding over randomized generated traffic:
//
//  1. partition: matched + unmatched entries account for every considered
//     entry (TraceEntries), and skipped entries are charged nowhere;
//  2. additivity: matching a trace equals matching its concatenated parts
//     — entry counts, byte statistics, and unmatched lists all compose;
//  3. empty trace: all-zero statistics.
//
// Each property runs as a "vm" subtest, named for the compiled matcher
// that MatchReport uses.
package trace

import (
	"reflect"
	"testing"

	"extractocol/internal/siglang"
)

func TestPropMatchedPlusUnmatchedIsTotal(t *testing.T) {
	reps := genReports(t, 51, 3)
	t.Run("vm", func(t *testing.T) {
		for i, rep := range reps {
			labeled := RandEntries(uint64(900+i), rep, 200)
			entries := Entries(labeled)
			skipped := 0
			for _, e := range entries {
				if e.Status >= 400 {
					skipped++
				}
			}
			res := MatchReport(rep, entries)
			if res.TraceEntries != len(entries)-skipped {
				t.Fatalf("app %d: TraceEntries = %d, want %d considered entries",
					i, res.TraceEntries, len(entries)-skipped)
			}
			if res.MatchedEntries+len(res.Unmatched) != res.TraceEntries {
				t.Fatalf("app %d: %d matched + %d unmatched != %d considered",
					i, res.MatchedEntries, len(res.Unmatched), res.TraceEntries)
			}
		}
	})
}

func TestPropStatsAdditiveAcrossEntries(t *testing.T) {
	reps := genReports(t, 52, 3)
	t.Run("vm", func(t *testing.T) {
		for i, rep := range reps {
			entries := Entries(RandEntries(uint64(950+i), rep, 240))
			full := MatchReport(rep, entries)
			for _, cut := range []int{0, 1, len(entries) / 3, len(entries) / 2, len(entries)} {
				a := MatchReport(rep, entries[:cut])
				b := MatchReport(rep, entries[cut:])
				sum := func(f func(*MatchResult) siglang.ByteStats) siglang.ByteStats {
					s := f(a)
					s.Add(f(b))
					return s
				}
				if got := sum(func(r *MatchResult) siglang.ByteStats { return r.URIStats }); got != full.URIStats {
					t.Fatalf("app %d cut %d: URIStats %+v + split != full %+v", i, cut, got, full.URIStats)
				}
				if got := sum(func(r *MatchResult) siglang.ByteStats { return r.ReqStats }); got != full.ReqStats {
					t.Fatalf("app %d cut %d: ReqStats not additive", i, cut)
				}
				if got := sum(func(r *MatchResult) siglang.ByteStats { return r.RespStats }); got != full.RespStats {
					t.Fatalf("app %d cut %d: RespStats not additive", i, cut)
				}
				if a.TraceEntries+b.TraceEntries != full.TraceEntries ||
					a.MatchedEntries+b.MatchedEntries != full.MatchedEntries {
					t.Fatalf("app %d cut %d: entry counts not additive", i, cut)
				}
				joined := append(append([]string{}, a.Unmatched...), b.Unmatched...)
				if len(joined) == 0 {
					joined = nil
				}
				var fullUnmatched []string
				if len(full.Unmatched) > 0 {
					fullUnmatched = full.Unmatched
				}
				if !reflect.DeepEqual(joined, fullUnmatched) {
					t.Fatalf("app %d cut %d: unmatched lists not additive", i, cut)
				}
			}
		}
	})
}

func TestPropEmptyTraceIsZero(t *testing.T) {
	reps := genReports(t, 53, 2)
	t.Run("vm", func(t *testing.T) {
		for i, rep := range reps {
			res := MatchReport(rep, nil)
			if res.TraceEntries != 0 || res.MatchedEntries != 0 || len(res.Unmatched) != 0 {
				t.Fatalf("app %d: empty trace counted entries: %+v", i, res)
			}
			var zero siglang.ByteStats
			if res.URIStats != zero || res.ReqStats != zero || res.RespStats != zero {
				t.Fatalf("app %d: empty trace accounted bytes: %+v", i, res)
			}
			if res.SigsWithTraffic != 0 || res.SigsValid != 0 {
				t.Fatalf("app %d: empty trace validated signatures: %+v", i, res)
			}
		}
	})
}
