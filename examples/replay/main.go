// Replay: the §5.3 reverse-engineering study. Extractocol's scoped
// analysis of the Kayak app recovers the private REST API — including the
// load-bearing User-Agent header and the authajax -> flight/start ->
// flight/poll session flow. This program is the Go analog of the paper's
// 73-line Python script: it drives the flight-fare search using ONLY
// information from the analysis report, against the simulated backend.
//
//	go run ./examples/replay
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
	"extractocol/internal/siglang"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	app := corpus.Kayak()

	// Reverse-engineer the API, scoped to com.kayak (excluding ad libs).
	opts := core.NewOptions()
	opts.ScopePrefix = "com.kayak."
	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recovered %d API endpoints from the binary\n", len(rep.Transactions))

	auth := findTx(rep, "authajax")
	start := findTx(rep, "flight/start")
	poll := findTx(rep, "flight/poll")
	if auth == nil || start == nil || poll == nil {
		return fmt.Errorf("replay: flight-search endpoints not recovered")
	}
	ua := headerValue(auth, "User-Agent")
	if ua == "" {
		return fmt.Errorf("replay: User-Agent header not recovered")
	}
	fmt.Fprintf(w, "app-specific header: User-Agent: %s\n\n", ua)

	net := app.NewNetwork()
	send := func(method, url, body string) *httpsim.Response {
		resp := net.RoundTrip(&httpsim.Request{
			Method:  method,
			URL:     url,
			Headers: map[string]string{"User-Agent": ua},
			Body:    body,
		})
		fmt.Fprintf(w, "%s %s -> %d\n", method, url, resp.Status)
		return resp
	}

	// Step 1: /k/authajax with the recovered registration body. Wildcard
	// fields are filled with plausible device values, as the paper's
	// script does.
	authBody := fill(siglang.RegexBody(auth.Request.Body), map[string]string{
		"uuid": "d3adb33f", "hash": "cafe01", "model": "Pixel",
		"os": "11", "locale": "en_US", "tz": "UTC",
	})
	resp := send("POST", literalURI(auth), authBody)
	sid := jsonField(resp.Body, "_sid_")
	if sid == "" {
		return fmt.Errorf("replay: no _sid_ in authajax response")
	}

	// Step 2: /flight/start with the recovered query-string template.
	startURL := fill(siglang.RegexBody(start.Request.URI), map[string]string{
		"cabin": "e", "travelers": "1", "origin": "SFO",
		"destination": "ICN", "depart_date": "2016-12-12", "_sid_": sid,
	})
	resp = send("GET", startURL, "")
	searchid := jsonField(resp.Body, "searchid")
	if searchid == "" {
		return fmt.Errorf("replay: no searchid in flight/start response")
	}

	// Step 3: /flight/poll for the fares.
	pollURL := fill(siglang.RegexBody(poll.Request.URI), map[string]string{
		"searchid": searchid, "currency": "USD",
	})
	resp = send("GET", pollURL, "")
	if resp.Status != 200 {
		return fmt.Errorf("replay: poll failed")
	}
	fmt.Fprintf(w, "\nflight fares retrieved: cheapest %s %s\n",
		jsonField(resp.Body, "cheapest"), jsonField(resp.Body, "currencyCode"))
	return nil
}

func findTx(rep *core.Report, frag string) *core.Transaction {
	for _, tx := range rep.Transactions {
		if strings.Contains(siglang.RegexBody(tx.Request.URI), frag) {
			return tx
		}
	}
	return nil
}

func headerValue(tx *core.Transaction, name string) string {
	for _, h := range tx.Request.Headers {
		if h.Key == name {
			if l, ok := h.Val.(*siglang.Lit); ok {
				return l.Val
			}
		}
	}
	return ""
}

// literalURI strips regex quoting from a fully literal URI signature.
func literalURI(tx *core.Transaction) string {
	return unquote(siglang.RegexBody(tx.Request.URI))
}

func unquote(re string) string {
	return strings.NewReplacer(`\.`, ".", `\?`, "?", `\/`, "/", `\&`, "&").Replace(re)
}

// fill replaces each "key=.*" wildcard in a recovered template with the
// provided value, producing a concrete request.
func fill(re string, values map[string]string) string {
	s := unquote(re)
	for k, v := range values {
		s = strings.Replace(s, k+"=.*", k+"="+v, 1)
	}
	// Any remaining wildcards become empty values.
	s = strings.ReplaceAll(s, "=.*", "=")
	return s
}

func jsonField(body, key string) string {
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		return ""
	}
	s, _ := m[key].(string)
	return s
}
