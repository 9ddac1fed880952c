package trace

import (
	"time"

	"extractocol/internal/core"
	"extractocol/internal/obs"
	"extractocol/internal/siglang"
	"extractocol/internal/sigvm"
)

// MatchResult aggregates signature-versus-traffic validation (§5.1
// "signature validity" and Table 2 byte accounting).
type MatchResult struct {
	// TraceEntries is the number of successful trace exchanges considered.
	TraceEntries int
	// MatchedEntries is how many were matched by some signature.
	MatchedEntries int
	// Unmatched lists route IDs of trace entries no signature covered.
	Unmatched []string

	// SigsWithTraffic counts signatures for which traffic was observed;
	// SigsValid counts those whose every observed exchange matched.
	SigsWithTraffic int
	SigsValid       int

	// URIStats, ReqStats and RespStats accumulate matched-byte statistics
	// over URIs, request bodies/query strings, and response bodies.
	URIStats  siglang.ByteStats
	ReqStats  siglang.ByteStats
	RespStats siglang.ByteStats
}

// MatchReport validates an analysis report against a traffic trace: the
// aggregate of a serial Classify.
func MatchReport(rep *core.Report, entries []Entry) *MatchResult {
	return &Classify(rep, entries, ClassifyOptions{Workers: 1}).MatchResult
}

// matchChunk runs the verdict loop over a slice of entries with one
// matcher over the bundle b, accumulating into res, the per-signature maps
// and hits (keyed by transaction ID). Each considered entry goes to the
// most specific signature (longest rendered URI regex, first in report
// order on a tie) whose method and URI template match: the first match
// among the bundle's candidates for its method, which come in that order.
// verdicts records its transaction ID (0 = entry skipped or unmatched). A
// non-nil stats shard additionally records the per-entry classification
// latency (obs.HistClassifyEntry); nil skips the clock reads entirely, so
// the default match path is unchanged.
func matchChunk(b *sigvm.Bundle, m *sigvm.Matcher, entries []Entry, res *MatchResult, sigMatched, sigFailed map[int]bool, hits map[int]int, verdicts []int, stats *obs.Shard) {
	var t0 time.Time
	for ei, e := range entries {
		if e.Status >= 400 {
			continue
		}
		if stats != nil {
			t0 = time.Now()
		}
		res.TraceEntries++
		best := -1
		for _, i := range b.Candidates(e.Method) {
			if m.MatchURI(i, e.URL) {
				best = i
				break
			}
		}
		if best < 0 {
			res.Unmatched = append(res.Unmatched, e.RouteID)
			if stats != nil {
				stats.Observe(obs.HistClassifyEntry, time.Since(t0).Nanoseconds())
			}
			continue
		}
		res.MatchedEntries++
		sigMatched[b.TxID(best)] = true
		hits[b.TxID(best)]++
		verdicts[ei] = b.TxID(best)
		ok := true

		if st := b.AccountURI(best, e.URL); st.Total() > 0 {
			res.URIStats.Add(st)
		}
		if bodyOK, st := m.MatchRequestBody(best, e.ReqBody); !bodyOK {
			ok = false
			res.ReqStats.Add(st)
		} else {
			res.ReqStats.Add(st)
		}
		if respOK, st := m.MatchResponseBody(best, e.RespType, e.RespBody); !respOK {
			ok = false
			res.RespStats.Add(st)
		} else {
			res.RespStats.Add(st)
		}
		if !ok {
			sigFailed[b.TxID(best)] = true
		}
		if stats != nil {
			stats.Observe(obs.HistClassifyEntry, time.Since(t0).Nanoseconds())
		}
	}
}

// finishSigCounts derives the signature-level tallies from the per-ID maps.
func finishSigCounts(res *MatchResult, sigMatched, sigFailed map[int]bool) {
	res.SigsWithTraffic = len(sigMatched)
	for id := range sigMatched {
		if !sigFailed[id] {
			res.SigsValid++
		}
	}
}
