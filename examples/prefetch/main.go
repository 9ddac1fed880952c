// Prefetch: the Fig. 1 application-acceleration scenario. Extractocol's
// dependency graph for TED shows that the android_ad.json response carries
// the URL of an advertisement resource whose own response carries the ad
// video URI, which the app feeds to the media player. A proxy that knows
// this can fetch the whole chain the moment the first response passes by,
// so the video is already local when the player asks.
//
// This example builds that prefetcher from the analysis output alone and
// demonstrates it against the simulated TED backend.
//
//	go run ./examples/prefetch
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/httpsim"
	"extractocol/internal/runtime"
	"extractocol/internal/siglang"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	app := corpus.TED()

	// Static analysis: find the transaction whose URI depends on a prior
	// response field — those are the prefetchable edges.
	rep, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		return err
	}
	type edge struct {
		fromID    int
		fromField string
		toID      int
	}
	var chain []edge
	byID := map[int]*core.Transaction{}
	for _, tx := range rep.Transactions {
		byID[tx.ID] = tx
	}
	for _, d := range rep.Deps {
		if d.ToPart != "uri" || d.FromField == "" {
			continue
		}
		chain = append(chain, edge{fromID: d.From, fromField: d.FromField, toID: d.To})
	}
	if len(chain) == 0 {
		return fmt.Errorf("prefetch: no URI dependencies found")
	}
	fmt.Fprintln(w, "prefetchable edges discovered by Extractocol:")
	for _, e := range chain {
		fmt.Fprintf(w, "  tx#%d response field %q feeds tx#%d's URI\n", e.fromID, e.fromField, e.toID)
	}

	// Dynamic side: a "proxy" watches responses; whenever a response
	// matches a transaction that feeds a later URI, it fetches that URI
	// immediately. We simulate by running the app and replaying its trace
	// through the proxy logic.
	net := app.NewNetwork()
	vm := runtime.New(app.Prog, net)
	for _, ep := range app.Prog.Manifest.EntryPoints {
		_ = vm.Fire(ep) // some handlers fail without prior state; fine
	}

	watch := map[int][]edge{} // fromID -> edges
	for _, e := range chain {
		watch[e.fromID] = append(watch[e.fromID], e)
	}

	prefetched := 0
	for _, t := range net.Trace() {
		if t.Response.Type != "json" {
			continue
		}
		for _, tx := range rep.Transactions {
			re, err := siglang.Compile(tx.Request.URI)
			if err != nil || tx.Request.Method != t.Request.Method || !re.MatchString(t.Request.URL) {
				continue
			}
			for _, e := range watch[tx.ID] {
				uri := extractField(t.Response.Body, e.fromField)
				if uri == "" || !strings.HasPrefix(uri, "http") {
					continue
				}
				resp := net.RoundTrip(&httpsim.Request{Method: "GET", URL: uri})
				if resp.Status == 200 {
					prefetched++
					fmt.Fprintf(w, "prefetched %s for tx#%d (%d bytes, %s)\n",
						uri, e.toID, len(resp.Body), resp.Type)
				}
			}
		}
	}
	if prefetched == 0 {
		return fmt.Errorf("prefetch: nothing prefetched")
	}
	fmt.Fprintf(w, "\n%d resources prefetched before the app asked for them\n", prefetched)
	return nil
}

// extractField pulls a dotted-path string field out of a JSON body.
func extractField(body, path string) string {
	var v any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		return ""
	}
	for _, part := range strings.Split(path, ".") {
		m, ok := v.(map[string]any)
		if !ok {
			return ""
		}
		v = m[part]
	}
	s, _ := v.(string)
	return s
}
