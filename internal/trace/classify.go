package trace

import (
	"runtime"
	"sync"

	"extractocol/internal/core"
	"extractocol/internal/obs"
	"extractocol/internal/sigvm"
)

// ClassifyOptions configures Classify: an optional precompiled bundle,
// the worker fan-out and the latency telemetry hook.
type ClassifyOptions struct {
	// VM is ignored: Classify always matches with the compiled sigvm
	// matcher.
	//
	// Deprecated: the interpretive matcher it once selected is a test
	// oracle now (internal/sigvm/oracle_test.go). The field stays only
	// until the benchmark harness, which still sets it, stops doing so.
	VM bool
	// Bundle optionally reuses a compiled bundle (it must have been
	// compiled from the same report); nil compiles one from the report.
	Bundle *sigvm.Bundle
	// Workers is the matcher fan-out; 0 or 1 runs serially, <0 uses
	// GOMAXPROCS. The result is byte-identical at any width: entries are
	// split into contiguous chunks and partial results merge in chunk
	// order.
	Workers int
	// Col, when non-nil, receives per-entry classification latencies
	// (obs.HistClassifyEntry) through per-worker shards — the telemetry
	// hook for cmd/classify's -profile/-ops flags. Nil skips all clock
	// reads.
	Col *obs.Collector
}

// SigHits is one signature's classification tally.
type SigHits struct {
	TxID   int    `json:"tx_id"`
	Method string `json:"method"`
	Hits   int    `json:"hits"`
}

// ClassifyResult is the MatchResult aggregate plus the per-entry and
// per-signature views a classifier needs: which transaction each entry
// resolved to, and how often each signature fired.
type ClassifyResult struct {
	MatchResult
	// PerSig tallies hits per signature, in report transaction order
	// (every transaction appears, hit or not).
	PerSig []SigHits
	// Verdicts holds, for every input entry in order, the transaction ID
	// of its best-matching signature; 0 when the entry was skipped
	// (status >= 400) or matched no signature.
	Verdicts []int
}

// Classify streams entries through the compiled signature matcher and
// returns the full classification: the MatchResult aggregate, per-entry
// verdicts, and per-signature hit tallies. With Workers > 1 the entries
// are fanned out over contiguous chunks — the compiled bundle is shared
// read-only, each worker owns a Matcher — and the merged result is
// byte-identical to a serial run.
func Classify(rep *core.Report, entries []Entry, opt ClassifyOptions) *ClassifyResult {
	workers := opt.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 0 {
		workers = 1
	}
	if workers > len(entries) {
		workers = max(1, len(entries))
	}

	// One bundle compilation shared by every worker; only Matcher scratch
	// is per-worker.
	bundle := opt.Bundle
	if bundle == nil {
		bundle = sigvm.Compile(rep)
	}

	res := &ClassifyResult{Verdicts: make([]int, len(entries))}
	sigMatched := map[int]bool{}
	sigFailed := map[int]bool{}
	hits := map[int]int{}

	// Latency shards: one per worker, nil (free) when no collector is
	// threaded through.
	newStats := func() *obs.Shard {
		if opt.Col == nil {
			return nil
		}
		return opt.Col.NewShard()
	}

	if workers == 1 {
		stats := newStats()
		matchChunk(bundle, bundle.NewMatcher(), entries, &res.MatchResult, sigMatched, sigFailed, hits, res.Verdicts, stats)
		opt.Col.Drain(stats)
	} else {
		type partial struct {
			res     MatchResult
			matched map[int]bool
			failed  map[int]bool
			hits    map[int]int
		}
		parts := make([]partial, workers)
		shards := make([]*obs.Shard, workers)
		chunk := (len(entries) + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(entries))
			if lo >= hi {
				continue
			}
			shards[w] = newStats()
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				p := &parts[w]
				p.matched = map[int]bool{}
				p.failed = map[int]bool{}
				p.hits = map[int]int{}
				matchChunk(bundle, bundle.NewMatcher(), entries[lo:hi], &p.res, p.matched, p.failed, p.hits, res.Verdicts[lo:hi], shards[w])
			}(w, lo, hi)
		}
		wg.Wait()
		for _, s := range shards {
			if s != nil {
				opt.Col.Drain(s)
			}
		}
		// Merge in chunk order: counters and byte stats are commutative
		// sums, Unmatched concatenates back into entry order.
		for w := range parts {
			p := &parts[w]
			res.TraceEntries += p.res.TraceEntries
			res.MatchedEntries += p.res.MatchedEntries
			res.Unmatched = append(res.Unmatched, p.res.Unmatched...)
			res.URIStats.Add(p.res.URIStats)
			res.ReqStats.Add(p.res.ReqStats)
			res.RespStats.Add(p.res.RespStats)
			for id := range p.matched {
				sigMatched[id] = true
			}
			for id := range p.failed {
				sigFailed[id] = true
			}
			for id, n := range p.hits {
				hits[id] += n
			}
		}
	}
	finishSigCounts(&res.MatchResult, sigMatched, sigFailed)

	for _, tx := range rep.Transactions {
		res.PerSig = append(res.PerSig, SigHits{
			TxID:   tx.ID,
			Method: tx.Request.Method,
			Hits:   hits[tx.ID],
		})
	}
	return res
}
