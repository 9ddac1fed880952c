package callgraph

import (
	"sync"
	"testing"

	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
)

// Types must be memoized: repeated queries return the same canonical slice,
// and Build itself warms the cache for every app method.
func TestTypesMemoized(t *testing.T) {
	p := testApp()
	g := Build(p, semmodel.Default())

	m := p.Method("t.app.Main.onCreate")
	if m == nil {
		t.Fatal("method missing")
	}
	t1 := g.Types(m)
	t2 := g.Types(m)
	if len(t1) == 0 {
		t.Fatal("no types inferred")
	}
	if &t1[0] != &t2[0] {
		t.Error("Types returned distinct slices; cache not shared")
	}

	col := obs.NewCollector()
	g.DrainCacheCounters(col)
	prof := col.Snapshot()
	// Build misses once per method; the two queries above are hits.
	if prof.Counter(obs.CtrCacheInferTypesMisses) == 0 {
		t.Error("no infertypes misses recorded")
	}
	if prof.Counter(obs.CtrCacheInferTypesHits) < 2 {
		t.Errorf("infertypes hits = %d, want >= 2", prof.Counter(obs.CtrCacheInferTypesHits))
	}
}

// DrainCacheCounters must reset the accumulators: a second drain with no
// intervening queries adds nothing.
func TestDrainCacheCountersResets(t *testing.T) {
	p := testApp()
	g := Build(p, semmodel.Default())
	g.ReachableBits("t.app.Main.onCreate")

	col := obs.NewCollector()
	g.DrainCacheCounters(col)
	before := col.Snapshot()
	g.DrainCacheCounters(col)
	after := col.Snapshot()
	for _, name := range []string{
		obs.CtrCacheReachableHits, obs.CtrCacheReachableMisses,
		obs.CtrCacheInferTypesHits, obs.CtrCacheInferTypesMisses,
	} {
		if before.Counter(name) != after.Counter(name) {
			t.Errorf("%s grew on a drain without queries: %d -> %d",
				name, before.Counter(name), after.Counter(name))
		}
	}
}

// The cache must be safe for concurrent readers (exercised under -race by
// ci.sh): many goroutines hammering Types and ReachableBits concurrently.
func TestCacheConcurrentReaders(t *testing.T) {
	p := testApp()
	g := Build(p, semmodel.Default())
	m := p.Method("t.app.Main.onCreate")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if len(g.Types(m)) == 0 {
					t.Error("empty types under concurrency")
					return
				}
				if g.ReachableBits("t.app.Main.onCreate").Empty() {
					t.Error("empty reachable set under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
}
