package sigvm

import (
	"strings"

	"extractocol/internal/intern"
	"extractocol/internal/siglang"
)

// XMLProg is a compiled XML-body matcher: the signature's element tree
// with the per-element derivations of matchElem precomputed — attribute
// and child-tag membership as interned bitsets (replacing the linear scans
// elemHasAttr/elemHasChild run per payload attribute and child).
type XMLProg struct {
	root *xmlElem // nil when the signature models no XML body
}

type xmlElem struct {
	tag      string
	wild     bool // tag "*": the parser's document node, children match anywhere
	attrs    []string
	attrSet  *intern.Bits // interned attribute keys, for the unknown-attr scan
	children []*xmlElem
	childSet *intern.Bits // interned child tags, for the unknown-child scan
	hasText  bool
}

func (b *Bundle) compileXML(root *siglang.Elem) *XMLProg {
	return &XMLProg{root: b.compileXMLElem(root)}
}

func (b *Bundle) compileXMLElem(e *siglang.Elem) *xmlElem {
	if e == nil {
		return nil
	}
	x := &xmlElem{
		tag:      e.Tag,
		wild:     e.Tag == "*",
		attrSet:  intern.NewBits(len(e.Attrs)),
		childSet: intern.NewBits(len(e.Children)),
		hasText:  e.Text != nil,
	}
	for _, a := range e.Attrs {
		x.attrs = append(x.attrs, a.Key)
		x.attrSet.Add(b.syms.Intern(a.Key))
	}
	for _, c := range e.Children {
		if c == nil { // a nil child constrains nothing
			continue
		}
		x.children = append(x.children, b.compileXMLElem(c))
		x.childSet.Add(b.syms.Intern(c.Tag))
	}
	return x
}

// matchXML is the oracle's MatchXML on a compiled program: decode through the
// shared ParseXMLPayload, then walk the compiled elements with identical
// verdicts and byte accounting (including the "no XML modeled → whole
// payload unaccounted but valid" case, which still requires the payload to
// parse).
func (b *Bundle) matchXML(p *XMLProg, payload []byte) (bool, siglang.ByteStats, error) {
	root, err := siglang.ParseXMLPayload(payload)
	if err != nil {
		return false, siglang.ByteStats{}, err
	}
	var st siglang.ByteStats
	if p == nil || p.root == nil {
		st.None = len(payload)
		return true, st, nil
	}
	ok := b.matchXMLElem(p.root, root, &st)
	return ok, st, nil
}

// matchXMLElem mirrors the oracle's matchElem exactly: same wildcard-root
// handling, same first-matching-child rule, same byte charges.
func (b *Bundle) matchXMLElem(sig *xmlElem, node *siglang.XMLNode, st *siglang.ByteStats) bool {
	if sig == nil || node == nil {
		return sig == nil
	}
	if sig.wild {
		// Wildcard root: every named child of the signature must occur
		// somewhere in the payload tree.
		ok := true
		for _, sc := range sig.children {
			found := findXMLNode(node, sc.tag)
			if found == nil {
				ok = false
				continue
			}
			if !b.matchXMLElem(sc, found, st) {
				ok = false
			}
		}
		return ok
	}
	if sig.tag != node.Tag {
		return false
	}
	st.Key += len(node.Tag)*2 + 5 // open+close tags
	ok := true
	for _, key := range sig.attrs {
		if v, present := node.Attrs[key]; present {
			st.Key += len(key) + 3
			st.Value += len(v)
		} else {
			ok = false
		}
	}
	for k, v := range node.Attrs {
		if !b.inSet(sig.attrSet, k) {
			st.None += len(k) + 3 + len(v)
		}
	}
	for _, sc := range sig.children {
		found := false
		for _, nc := range node.Children {
			if nc.Tag == sc.tag {
				// Only the first tag-matching payload child is considered,
				// as in the interpreter.
				if b.matchXMLElem(sc, nc, st) {
					found = true
				}
				break
			}
		}
		if !found {
			ok = false
		}
	}
	for _, nc := range node.Children {
		if !b.inSet(sig.childSet, nc.Tag) {
			st.None += siglang.XMLNodeSize(nc)
		}
	}
	if sig.hasText {
		st.Value += len(strings.TrimSpace(node.Text))
	} else {
		st.None += len(strings.TrimSpace(node.Text))
	}
	return ok
}

// findXMLNode is siglang.findNode on the shared decoded tree: preorder,
// first match wins.
func findXMLNode(n *siglang.XMLNode, tag string) *siglang.XMLNode {
	if n.Tag == tag {
		return n
	}
	for _, c := range n.Children {
		if f := findXMLNode(c, tag); f != nil {
			return f
		}
	}
	return nil
}

func (b *Bundle) inSet(set *intern.Bits, s string) bool {
	id, ok := b.syms.Lookup(s)
	return ok && set.Has(id)
}
