package sigbuild

import (
	"reflect"
	"sync"
	"testing"

	"extractocol/internal/callgraph"
	"extractocol/internal/corpus"
	"extractocol/internal/semmodel"
	"extractocol/internal/slice"
)

// TestConcurrentBuildsMatchSerial builds every transaction of one corpus
// app from several goroutines that share one call graph, and so fill its
// per-method plan memo together, and requires each result to equal a
// serial build over a graph of its own. ci.sh runs it under -race.
func TestConcurrentBuildsMatchSerial(t *testing.T) {
	const workers = 4
	app, err := corpus.ByName("KAYAK")
	if err != nil {
		t.Fatal(err)
	}
	p, model := app.Prog, semmodel.Default()
	shared := callgraph.Build(p, model)
	txs := slice.Find(p, model, shared, slice.Options{MaxAsyncHops: 1})
	if len(txs) < workers {
		t.Fatalf("%d transactions, want at least %d", len(txs), workers)
	}
	type result struct {
		req  *RequestSig
		resp *ResponseSig
		err  error
	}
	own := callgraph.Build(p, model)
	serial := make([]result, len(txs))
	for i, tx := range txs {
		serial[i].req, serial[i].resp, serial[i].err = Build(p, model, own, tx)
	}

	got := make([][]result, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]result, len(txs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker starts at its own transaction, so the first
			// queries for a method's plan race.
			for k := range txs {
				i := (k + w*len(txs)/workers) % len(txs)
				r := &got[w][i]
				r.req, r.resp, r.err = Build(p, model, shared, txs[i])
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, r := range got[w] {
			if !reflect.DeepEqual(r, serial[i]) {
				t.Errorf("worker %d, transaction %d (%s@%d): concurrent build differs from the serial one",
					w, i, txs[i].DP.Method, txs[i].DP.Index)
			}
		}
	}
}
