// Explain rendering: the per-transaction provenance chain recorded by the
// analysis under core.Options.Explain, shown by the -explain CLI flag. Each
// transaction's chain answers "why does this signature exist": the entry
// point that rooted the slice, the demarcation point, the slice and
// augmentation sizes, the pairing flow witness, the heap locations bridging
// asynchronous events, the abstract-interpretation cost of the signature,
// and the dependency edges feeding the request.
package report

import (
	"encoding/json"
	"fmt"
	"strings"

	"extractocol/internal/core"
	"extractocol/internal/siglang"
)

// ExplainText renders every transaction's evidence chain as indented text.
// Transactions without evidence (analysis ran with Explain off, or folded
// records from older reports) render a single "no evidence recorded" line
// rather than failing.
func ExplainText(r *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Provenance for %s (%s): %d transaction(s)\n",
		r.AppName, r.Package, len(r.Transactions))
	for _, tx := range r.Transactions {
		fmt.Fprintf(&b, "\n#%d %s %s\n", tx.ID, tx.Request.Method,
			siglang.RegexBody(tx.Request.URI))
		ev := tx.Evidence
		if ev == nil {
			b.WriteString("    no evidence recorded (run with -explain)\n")
			continue
		}
		fmt.Fprintf(&b, "    entry: %s [%s]", ev.Entry, ev.EntryKind)
		if ev.EntryLabel != "" {
			fmt.Fprintf(&b, " (%s)", ev.EntryLabel)
		}
		b.WriteString("\n")
		if len(tx.Entries) > 1 {
			fmt.Fprintf(&b, "    folded entries: %s\n", strings.Join(tx.Entries, ", "))
		}
		fmt.Fprintf(&b, "    demarcation point: %s (%s)\n", ev.DP, ev.DPRef)
		fmt.Fprintf(&b, "    request slice: %d stmts in %d methods (%d sliced + %d augmented)\n",
			ev.ReqStmts, ev.ReqMethods, ev.ReqSliced, ev.ReqStmts-ev.ReqSliced)
		if ev.RespStmts > 0 {
			fmt.Fprintf(&b, "    response slice: %d stmts in %d methods (%d sliced + %d augmented)\n",
				ev.RespStmts, ev.RespMethods, ev.RespSliced, ev.RespStmts-ev.RespSliced)
		}
		switch {
		case ev.FlowWitness != "":
			fmt.Fprintf(&b, "    pairing flow: confirmed from %d seed stmt(s), witness %s\n",
				ev.FlowSeeds, ev.FlowWitness)
		case ev.FlowSeeds > 0:
			fmt.Fprintf(&b, "    pairing flow: unconfirmed (%d seed stmt(s))\n", ev.FlowSeeds)
		}
		if len(ev.HeapReads) > 0 {
			fmt.Fprintf(&b, "    heap reads: %s\n", strings.Join(ev.HeapReads, ", "))
		}
		if len(ev.HeapWrites) > 0 {
			fmt.Fprintf(&b, "    heap writes: %s\n", strings.Join(ev.HeapWrites, ", "))
		}
		fmt.Fprintf(&b, "    signature: %d method interpretation(s)", ev.SigMethods)
		if ev.SigPrePass > 0 {
			fmt.Fprintf(&b, " (%d pre-pass)", ev.SigPrePass)
		}
		b.WriteString("\n")
		seen := map[string]bool{}
		for _, d := range r.Deps {
			if d.To != tx.ID {
				continue
			}
			line := "    depends: " + d.Explain() + "\n"
			if seen[line] {
				continue
			}
			seen[line] = true
			b.WriteString(line)
		}
	}
	return b.String()
}

// explainTx is the machine-readable shape of one transaction's evidence.
type explainTx struct {
	ID       int            `json:"id"`
	Method   string         `json:"method"`
	URIRegex string         `json:"uri_regex"`
	Entries  []string       `json:"entries,omitempty"`
	Evidence *core.Evidence `json:"evidence"`
	Deps     []jsonDep      `json:"deps,omitempty"`
}

// ExplainJSON renders the evidence chains as indented JSON — the payload
// behind "-explain" with "-format json". Evidence is null for transactions
// analyzed without the explain layer.
func ExplainJSON(r *core.Report) ([]byte, error) {
	type explainDoc struct {
		Package      string      `json:"package"`
		App          string      `json:"app"`
		Transactions []explainTx `json:"transactions"`
	}
	doc := explainDoc{Package: r.Package, App: r.AppName}
	for _, tx := range r.Transactions {
		et := explainTx{
			ID:       tx.ID,
			Method:   tx.Request.Method,
			URIRegex: tx.URIRegex(),
			Entries:  tx.Entries,
			Evidence: tx.Evidence,
		}
		for _, d := range r.Deps {
			if d.To == tx.ID {
				et.Deps = append(et.Deps, jsonDep(d))
			}
		}
		doc.Transactions = append(doc.Transactions, et)
	}
	return json.MarshalIndent(doc, "", "  ")
}
