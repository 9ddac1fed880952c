// Metamorphic obfuscation invariance (§3.4): ProGuard-style renaming of
// every app class, method and field must not change what the analysis
// extracts. Transaction counts, request signatures, pairing statistics and
// inter-transaction dependency edges are compared across the whole corpus;
// identifiers that legitimately differ (demarcation-point sites, heap
// locations in dependency Via fields) are mapped through the obfuscation
// mapping before comparison, so the test also validates the mapping
// itself.
package extractocol

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/obfuscate"
	"extractocol/internal/report"
	"extractocol/internal/siglang"
)

func TestMetamorphicObfuscation(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the whole corpus twice")
	}
	for _, app := range corpus.Apps() {
		app := app
		t.Run(app.Spec.Name, func(t *testing.T) {
			t.Parallel()
			opts := core.NewOptions()
			if app.Spec.OpenSource {
				opts.MaxAsyncHops = 0 // mirror the paper's open-source configuration
			}
			plain, err := core.Analyze(app.Prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			obf, err := corpus.ByName(app.Spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			mapping := obfuscate.Apply(obf.Prog)
			after, err := core.Analyze(obf.Prog, opts)
			if err != nil {
				t.Fatalf("obfuscated: %v", err)
			}

			// Invariant 1: counts.
			if len(after.Transactions) != len(plain.Transactions) {
				t.Errorf("transactions: %d obfuscated vs %d plain",
					len(after.Transactions), len(plain.Transactions))
			}
			if after.PairCount() != plain.PairCount() {
				t.Errorf("pairs: %d obfuscated vs %d plain", after.PairCount(), plain.PairCount())
			}
			if len(after.Deps) != len(plain.Deps) {
				t.Errorf("dependency edges: %d obfuscated vs %d plain",
					len(after.Deps), len(plain.Deps))
			}

			// Invariant 2: the signature identity multiset, with plain
			// demarcation points mapped forward through the renaming.
			pk, ak := keysMapped(plain, mapping), keysMapped(after, nil)
			if !equalStrings(pk, ak) {
				t.Errorf("signature keys differ\nplain (mapped): %v\nobfuscated:     %v", pk, ak)
			}

			// Invariant 3: dependency edges as (from, to, field, part, via)
			// with endpoints named by signature key instead of numeric ID.
			pe, ae := edgeSet(plain, mapping), edgeSet(after, nil)
			if !equalStrings(pe, ae) {
				t.Errorf("dependency edges differ\nplain (mapped): %v\nobfuscated:     %v", pe, ae)
			}

			// Invariant 4: the rendered per-transaction blocks, compared as
			// a set (renaming may permute job order and thus IDs).
			pb, ab := textBlocks(plain), textBlocks(after)
			if !equalStrings(pb, ab) {
				t.Errorf("report blocks differ\n--- plain ---\n%s\n--- obfuscated ---\n%s",
					strings.Join(pb, "\n<block>\n"), strings.Join(ab, "\n<block>\n"))
			}
		})
	}
}

// keysMapped lists every transaction's dedup key, sorted; a non-nil
// mapping rewrites the embedded demarcation point to its obfuscated name.
func keysMapped(r *core.Report, m *obfuscate.Mapping) []string {
	var out []string
	for _, tx := range r.Transactions {
		out = append(out, mappedKey(tx, m))
	}
	sort.Strings(out)
	return out
}

// mappedKey mirrors core.Transaction.Key with the demarcation point run
// through the obfuscation mapping.
func mappedKey(tx *core.Transaction, m *obfuscate.Mapping) string {
	uriCanon := siglang.Canon(tx.Request.URI)
	var b strings.Builder
	b.WriteString(tx.Request.Method)
	b.WriteString("|")
	b.WriteString(uriCanon)
	if !strings.Contains(uriCanon, `"`) {
		b.WriteString("|")
		b.WriteString(mapSite(tx.DP, m))
	}
	b.WriteString("|")
	b.WriteString(tx.Request.BodyKind)
	b.WriteString("|")
	b.WriteString(siglang.Canon(tx.Request.Body))
	return b.String()
}

// mapSite rewrites "Class.method@idx" through the method renaming.
func mapSite(site string, m *obfuscate.Mapping) string {
	if m == nil {
		return site
	}
	at := strings.Index(site, "@")
	if at < 0 {
		return site
	}
	if v, ok := m.Methods[site[:at]]; ok {
		return v + site[at:]
	}
	return site
}

// mapLoc rewrites a heap location or demarcation origin ("f:Class.field",
// "s:Class.field", "dp:Class.method@idx:path") through the renaming.
func mapLoc(loc string, m *obfuscate.Mapping) string {
	if m == nil {
		return loc
	}
	switch {
	case strings.HasPrefix(loc, "f:"), strings.HasPrefix(loc, "s:"):
		rest := loc[2:]
		i := strings.LastIndex(rest, ".")
		if i < 0 {
			return loc
		}
		cls, fld := rest[:i], rest[i+1:]
		if v, ok := m.Classes[cls]; ok {
			if f, ok := m.Fields[cls+"."+fld]; ok {
				fld = f
			}
			return loc[:2] + v + "." + fld
		}
		return loc
	case strings.HasPrefix(loc, "dp:"):
		rest := loc[3:]
		at := strings.Index(rest, "@")
		if at < 0 {
			return loc
		}
		if v, ok := m.Methods[rest[:at]]; ok {
			return "dp:" + v + rest[at:]
		}
		return loc
	}
	return loc
}

// edgeSet canonicalizes the dependency edges with key-named endpoints.
func edgeSet(r *core.Report, m *obfuscate.Mapping) []string {
	byID := map[int]string{}
	for _, tx := range r.Transactions {
		byID[tx.ID] = mappedKey(tx, m)
	}
	var out []string
	for _, d := range r.Deps {
		out = append(out, fmt.Sprintf("%s => %s field=%q part=%q via=%q",
			byID[d.From], byID[d.To], d.FromField, d.ToPart, mapLoc(d.Via, m)))
	}
	sort.Strings(out)
	return out
}

// textBlocks splits the text report into per-transaction blocks with the
// order-dependent pieces removed: the "#N " prefix and the "uses tx #N"
// dependency lines (edges are compared structurally by edgeSet).
func textBlocks(r *core.Report) []string {
	var blocks []string
	var cur []string
	flush := func() {
		if cur != nil {
			blocks = append(blocks, strings.Join(cur, "\n"))
			cur = nil
		}
	}
	for _, line := range strings.Split(report.Text(r), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
			flush()
			if i := strings.Index(line, " "); i >= 0 {
				cur = []string{line[i+1:]}
			}
		case cur != nil && strings.Contains(line, "uses tx #"):
			// dropped: numeric IDs depend on job order
		case cur != nil && line != "":
			cur = append(cur, line)
		}
	}
	flush()
	sort.Strings(blocks)
	return blocks
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
