// Quickstart: analyze the bundled Diode app (the paper's Fig. 3 running
// example) straight from its binary container and print the reconstructed
// request signatures, exactly as a downstream user of the library would.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/report"
	"extractocol/internal/siglang"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// Step 1: obtain the application binary. The corpus builds Diode and
	// we round-trip it through the .apkb container to demonstrate that the
	// binary is the analysis' only input.
	app := corpus.Diode()
	dir, err := os.MkdirTemp("", "extractocol-quickstart")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	apk := filepath.Join(dir, "diode.apkb")
	if err := dex.WriteFile(apk, app.Prog); err != nil {
		return err
	}
	prog, err := dex.ReadFile(apk)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded %s: %d classes, %d instructions\n\n",
		apk, len(prog.Classes()), prog.InstrCount())

	// Step 2: run the analysis.
	rep, err := core.Analyze(prog, core.NewOptions())
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Text(rep))

	// Step 3: the Fig. 3 signature. One transaction combines all nine URI
	// patterns of DownloadThreadsTask into a single regular expression.
	fmt.Fprintln(w, "\nFig. 3 check — the DownloadThreadsTask signature accepts:")
	for _, tx := range rep.Transactions {
		re, err := siglang.Compile(tx.Request.URI)
		if err != nil {
			continue
		}
		matched := 0
		for _, uri := range corpus.DiodeFigure3URIs() {
			if re.MatchString(uri) {
				matched++
			}
		}
		if matched == len(corpus.DiodeFigure3URIs()) {
			for _, uri := range corpus.DiodeFigure3URIs() {
				fmt.Fprintf(w, "  %s\n", uri)
			}
			fmt.Fprintf(w, "  (signature: %s)\n", tx.URIRegex())
			return nil
		}
	}
	return fmt.Errorf("quickstart: no signature covered the Fig. 3 URI set")
}
