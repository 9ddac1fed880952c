package ir_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"extractocol/internal/corpus"
	"extractocol/internal/ir"
)

// hierarchyNames lists every name a hierarchy query can meaningfully take
// on p: class names, superclass names and interface names, plus one name
// the program never mentions.
func hierarchyNames(p *ir.Program) []string {
	seen := map[string]bool{"t.NeverMentioned": true}
	for _, c := range p.Classes() {
		seen[c.Name] = true
		if c.Super != "" {
			seen[c.Super] = true
		}
		for _, i := range c.Interfaces {
			seen[i] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkHierarchy requires the Index tables to answer every query on p
// exactly as the whole-program scans do, and returns how many subclass
// and implementer answers were non-empty.
func checkHierarchy(t *testing.T, name string, p *ir.Program) (subs, impls int) {
	t.Helper()
	x := ir.NewIndex(p)
	for _, n := range hierarchyNames(p) {
		if got, want := x.Subclasses(n), ir.ScanSubclasses(p, n); !slices.Equal(got, want) {
			t.Errorf("%s: Subclasses(%s) = %v, scan = %v", name, n, got, want)
		} else if len(got) > 0 {
			subs++
		}
		if got, want := x.Implementers(n), ir.ScanImplementers(p, n); !slices.Equal(got, want) {
			t.Errorf("%s: Implementers(%s) = %v, scan = %v", name, n, got, want)
		} else if len(got) > 0 {
			impls++
		}
	}
	return subs, impls
}

// hierarchies are hand-built class hierarchies covering the shapes CHA and
// interface dispatch must get right. Classes are added leaf-first where
// it matters, so the tables cannot lean on insertion order.
func hierarchies() map[string]*ir.Program {
	out := map[string]*ir.Program{}
	add := func(name string, classes ...*ir.Class) {
		p := ir.NewProgram("t")
		for _, c := range classes {
			p.AddClass(c)
		}
		out[name] = p
	}

	var chain []*ir.Class
	for i := 7; i > 0; i-- {
		chain = append(chain, &ir.Class{Name: fmt.Sprintf("t.C%d", i), Super: fmt.Sprintf("t.C%d", i-1)})
	}
	chain = append(chain, &ir.Class{Name: "t.C0", Super: "java.lang.Object", Interfaces: []string{"t.Root"}})
	add("deep chain", chain...)

	add("interface at two levels",
		&ir.Class{Name: "t.Leaf", Super: "t.Mid"},
		&ir.Class{Name: "t.Mid", Super: "t.Base", Interfaces: []string{"t.I", "t.J", "t.I"}},
		&ir.Class{Name: "t.Base", Interfaces: []string{"t.I"}})

	add("sibling implementers",
		&ir.Class{Name: "t.P"},
		&ir.Class{Name: "t.Y", Super: "t.P", Interfaces: []string{"t.L"}},
		&ir.Class{Name: "t.X", Super: "t.P", Interfaces: []string{"t.L"}})

	add("superclass outside the program",
		&ir.Class{Name: "t.Child", Super: "t.Orphan"},
		&ir.Class{Name: "t.Orphan", Super: "t.Missing", Interfaces: []string{"t.Missing"}})

	add("library superclass",
		&ir.Class{Name: "t.App", Super: "lib.Base"},
		&ir.Class{Name: "lib.Base", Super: "lib.Root", Library: true, Interfaces: []string{"lib.Callback"}})

	add("empty program")
	return out
}

// TestHierarchyTablesMatchScans checks Index.Subclasses and
// Index.Implementers against the scans they replaced, for every class,
// superclass and interface name. The Table 1 corpus and the generated
// corpus have no class whose superclass is in the program and no class
// declaring an interface — their only non-empty answers are the app
// subclasses of library superclasses — so the hand-built hierarchies
// carry every non-trivial result: deep chains, repeated interfaces,
// siblings, orphaned and library superclasses.
func TestHierarchyTablesMatchScans(t *testing.T) {
	var subs, impls int
	for name, p := range hierarchies() {
		s, i := checkHierarchy(t, name, p)
		subs += s
		impls += i
	}
	if subs == 0 || impls == 0 {
		t.Fatalf("hand-built hierarchies gave %d non-empty subclass and %d implementer answers; want both > 0", subs, impls)
	}
	for _, a := range append(corpus.Apps(), corpus.Rand(1729, 100)...) {
		checkHierarchy(t, a.Spec.Name, a.Prog)
	}
}
