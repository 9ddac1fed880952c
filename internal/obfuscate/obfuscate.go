// Package obfuscate implements a ProGuard-like identifier renamer for IR
// programs.
//
// Renaming replaces app class, method and field names with short opaque
// identifiers (a, b, c, ...), exactly the transformation ProGuard applies.
// Library references (the modeled API surface) are left intact, matching
// the paper's observation that "many real-world apps do not obfuscate
// library codes, even when their own code is obfuscated".
package obfuscate

import (
	"fmt"
	"strings"

	"extractocol/internal/callgraph"
	"extractocol/internal/ir"
)

// Mapping records original -> obfuscated identifiers, so callers can map
// an obfuscated program's report back to the original names.
type Mapping struct {
	Classes map[string]string // original class -> new class
	Methods map[string]string // original "Class.method" -> new "Class.method"
	Fields  map[string]string // original "Class.field" -> new field name
}

// Apply obfuscates p's app classes in place and returns the mapping.
// Constructors, framework callbacks and manifest entry points keep their
// method names, as ProGuard keep-rules keep them: Android resolves
// manifest-registered components and callbacks by name.
func Apply(p *ir.Program) *Mapping {
	m := &Mapping{
		Classes: map[string]string{},
		Methods: map[string]string{},
		Fields:  map[string]string{},
	}
	keepMethods := map[string]bool{}
	for _, ep := range p.Manifest.EntryPoints {
		keepMethods[ep.Method] = true
	}

	// Stable ordering: classes in declaration order.
	var renamed []*ir.Class
	for _, c := range p.Classes() {
		if c.Library {
			continue
		}
		m.Classes[c.Name] = obfName(p.Manifest.Package, len(renamed))
		renamed = append(renamed, c)
	}

	// Method and field renames per class.
	for _, c := range renamed {
		mi, fi := 0, 0
		for _, meth := range c.Methods {
			old := c.Name + "." + meth.Name
			if meth.Name == "<init>" || isFrameworkCallback(meth.Name) || keepMethods[old] {
				m.Methods[old] = m.Classes[c.Name] + "." + meth.Name
				continue
			}
			newName := shortName(mi)
			mi++
			m.Methods[old] = m.Classes[c.Name] + "." + newName
		}
		for _, f := range c.Fields {
			m.Fields[c.Name+"."+f.Name] = shortName(fi)
			fi++
		}
	}

	rewrite(p, m)
	p.Manifest.Obfuscated = true
	return m
}

// isFrameworkCallback reports method names the Android framework invokes by
// name; ProGuard keep-rules preserve them.
func isFrameworkCallback(name string) bool {
	switch name {
	case "onCreate", "onResponse", "doInBackground", "onPostExecute", "run",
		"onClick", "onLocationChanged":
		return true
	}
	return strings.HasPrefix(name, "on")
}

func obfName(pkg string, i int) string {
	return fmt.Sprintf("%s.%s", pkg, shortName(i))
}

// shortName yields a, b, ..., z, aa, ab, ...
func shortName(i int) string {
	var b []byte
	for {
		b = append([]byte{byte('a' + i%26)}, b...)
		i = i/26 - 1
		if i < 0 {
			break
		}
	}
	return string(b)
}

// rewrite applies the mapping to every reference in the program.
func rewrite(p *ir.Program, m *Mapping) {
	newClass := func(name string) string {
		if n, ok := m.Classes[name]; ok {
			return n
		}
		return name
	}
	newMethodRef := func(ref string) string {
		if n, ok := m.Methods[ref]; ok {
			return n
		}
		// A reference to an unrenamed method of a renamed class.
		cls, name, ok := ir.SplitRef(ref)
		if ok {
			if nc, renamedCls := m.Classes[cls]; renamedCls {
				return nc + "." + name
			}
		}
		return ref
	}
	newFieldName := func(cls, field string) string {
		// Walk the hierarchy for the declaring class.
		for c := p.Class(cls); c != nil; c = p.Class(c.Super) {
			if c.Field(field) != nil {
				if n, ok := m.Fields[c.Name+"."+field]; ok {
					return n
				}
				return field
			}
			if c.Super == "" {
				break
			}
		}
		if n, ok := m.Fields[cls+"."+field]; ok {
			return n
		}
		return field
	}

	for _, c := range p.Classes() {
		for _, meth := range c.Methods {
			// Receiver types must be inferred before any reference in this
			// method is rewritten: field renames resolve against the
			// *object's* class, not the class containing the access.
			types := callgraph.InferTypes(p, meth)
			for i := range meth.Instrs {
				in := &meth.Instrs[i]
				switch in.Op {
				case ir.OpNew:
					in.Sym = newClass(in.Sym)
				case ir.OpInvoke:
					in.Sym = newMethodRef(in.Sym)
				case ir.OpFieldGet, ir.OpFieldPut:
					base := c.Name
					if in.A >= 0 && in.A < len(types) && types[in.A] != "" {
						base = types[in.A]
					}
					in.Sym = newFieldName(base, in.Sym)
				case ir.OpStaticGet, ir.OpStaticPut:
					cls, f, ok := ir.SplitRef(in.Sym)
					if ok {
						in.Sym = newClass(cls) + "." + newFieldName(cls, f)
					}
				}
			}
			// Parameter and return types.
			for i, t := range meth.Params {
				meth.Params[i] = newClass(t)
			}
			meth.Return = newClass(meth.Return)
		}
	}

	// Rename declarations last (reference rewriting reads old names).
	for _, c := range p.Classes() {
		oldCls := c.Name
		for _, meth := range c.Methods {
			if n, ok := m.Methods[oldCls+"."+meth.Name]; ok {
				_, nm, _ := ir.SplitRef(n)
				meth.Name = nm
			}
		}
		for _, f := range c.Fields {
			if n, ok := m.Fields[oldCls+"."+f.Name]; ok {
				f.Name = n
			}
			f.Type = newClass(f.Type)
		}
		c.Super = newClass(c.Super)
		for i, ifc := range c.Interfaces {
			c.Interfaces[i] = newClass(ifc)
		}
	}
	// Rebuild the class index with new names, preserving the manifest and
	// resources, and remap entry-point references.
	classes := p.Classes()
	rebuilt := ir.NewProgram(p.Manifest.Package)
	rebuilt.Manifest = p.Manifest
	rebuilt.Resources = p.Resources
	for _, c := range classes {
		if n, ok := m.Classes[c.Name]; ok {
			c.Name = n
		}
		rebuilt.AddClass(c)
	}
	for i := range rebuilt.Manifest.EntryPoints {
		ep := &rebuilt.Manifest.EntryPoints[i]
		ep.Method = newMethodRef(ep.Method)
	}
	*p = *rebuilt
}
