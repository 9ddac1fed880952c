package siglang_test

import (
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/siglang"
)

// TestRenderersMatchOracleOnCorpus holds the append renderers to the
// oracle on every signature the corpus and corpus.Rand(1729, 100) reports
// render: request URIs, bodies and header values, and the response JSON
// or XML tree of a response with a body.
func TestRenderersMatchOracleOnCorpus(t *testing.T) {
	n := 0
	for _, a := range append(corpus.Apps(), corpus.Rand(1729, 100)...) {
		rep, err := core.Analyze(a.Prog, core.NewOptions())
		if err != nil {
			t.Fatalf("%s: %v", a.Spec.Name, err)
		}
		for _, tx := range rep.Transactions {
			sigs := []siglang.Sig{tx.Request.URI, tx.Request.Body}
			for _, h := range tx.Request.Headers {
				sigs = append(sigs, h.Val)
			}
			if r := tx.Response; r != nil && r.HasBody() {
				switch r.BodyKind {
				case "json":
					sigs = append(sigs, &siglang.JSON{Root: r.JSON})
				case "xml":
					sigs = append(sigs, &siglang.XML{Root: r.XML})
				}
			}
			for _, s := range sigs {
				siglang.CheckRenderersMatchOracle(t, s, sigs)
			}
			n += len(sigs)
		}
	}
	t.Logf("%d signatures", n)
}
