package ir

import (
	"slices"
	"sort"
)

// ScanSubclasses and ScanImplementers answer each hierarchy query by
// iterating all classes and walking each one's superclass chain. They are
// the reference the Index tables are checked against, exported for the
// external ir_test package. Both loop forever on a cyclic chain; Validate
// rejects such programs.

// ScanSubclasses returns the names of all classes that have cls on their
// superclass chain (not including cls itself), sorted.
func ScanSubclasses(p *Program, cls string) []string {
	var out []string
	for name, c := range p.classes {
		for s := c.Super; s != ""; {
			if s == cls {
				out = append(out, name)
				break
			}
			sc := p.classes[s]
			if sc == nil {
				break
			}
			s = sc.Super
		}
	}
	sort.Strings(out)
	return out
}

// ScanImplementers returns the names of classes declaring the given
// interface, directly or through a superclass, sorted.
func ScanImplementers(p *Program, iface string) []string {
	var out []string
	for name := range p.classes {
		for c := p.classes[name]; c != nil; c = p.classes[c.Super] {
			if slices.Contains(c.Interfaces, iface) {
				out = append(out, name)
				break
			}
			if c.Super == "" {
				break
			}
		}
	}
	sort.Strings(out)
	return out
}
