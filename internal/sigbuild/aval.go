// Package sigbuild reconstructs message signatures from program slices
// (§3.2): it interprets each slice abstractly — basic blocks in topological
// order, signature databases merged at confluence points, loop-variant
// string parts widened to repetitions — using the API semantic model to
// give meaning to library calls. The outputs are request signatures (URI,
// method, headers, body) and response signatures (JSON/XML access trees).
package sigbuild

import (
	"sort"
	"strings"

	"extractocol/internal/siglang"
)

// objKind classifies abstract objects.
type objKind uint8

const (
	oOpaque    objKind = iota
	oBuilder           // StringBuilder: accumulates buf
	oRequest           // HTTP request under construction
	oEntity            // request body entity
	oNVPair            // name/value pair
	oList              // ordered element list
	oMap               // string-keyed map / ContentValues
	oJSONBuild         // JSONObject being constructed (request side)
	oURL               // java.net.URL wrapper
	oCall              // okhttp Call wrapping a request
	oRespNode          // node of a response access tree (JSON)
	oRespXML           // node of a response XML access tree
	oRespRaw           // raw response / entity / body string carrier
	oTyped             // app-defined object (gson-style reflection)
)

// aobj is a mutable abstract object. Objects are shared by reference
// between registers, mirroring Java aliasing. Each carries the allocation
// site identity (allocID) so per-branch copies can be matched and merged at
// control-flow confluence points. Signature fields are replaced, not edited.
type aobj struct {
	allocID int
	kind    objKind
	class   string

	buf siglang.Sig // oBuilder accumulation

	// oRequest fields.
	uri      siglang.Sig
	method   string
	headers  []siglang.KV
	body     *aobj
	uriDeps  map[string]bool
	bodyDeps map[string]bool

	// oEntity.
	text     siglang.Sig // accumulated text/query body
	bodyKind string      // "query", "json", "text", "xml"
	jsonTree *siglang.Obj

	// oNVPair.
	key, val aval

	// oList.
	elems []aval
	open  bool // loop-extended

	// oMap / oTyped field writes.
	pairs map[string]aval
	order []string

	// oJSONBuild.
	tree *siglang.Obj
	// nested maps each tree a builder was put as (a pair value in tree) to
	// that builder, whose later puts resolvedTree shows, as Java would.
	nested map[*siglang.Obj]*aobj

	// oRespNode / oRespXML: shared access tree of one response.
	resp     *respState
	respPath string
	node     *siglang.Obj
	elem     *siglang.Elem

	// oCall.
	request *aobj

	// oBuilder loop widening: the repetition node currently being extended
	// and the loop header it belongs to; lastRep, when set, is buf's last part.
	lastRep     *siglang.Rep
	lastRepLoop int

	// oTyped: bound response (gson fromJson) when non-nil.
	respBound bool
}

// respState is the shared, growing access signature of one response: the
// record of everything the program reads from it.
type respState struct {
	dpID     string // "method@index" of the demarcation point
	bodyKind string // "json", "xml", "text", ""
	root     *siglang.Obj
	xmlRoot  *siglang.Elem
	// writeOrigins: heap location -> response tree path stored there.
	writeOrigins map[string]string
}

// aval is an abstract value: a signature for scalars, an object reference
// for objects, plus provenance (heap locations and response paths feeding
// the value).
type aval struct {
	sig siglang.Sig
	obj *aobj

	locs     map[string]bool // heap/db/res/dp provenance
	fromResp *respState      // response this value derives from, if any
	respPath string          // tree path within fromResp
}

func unknownVal(t siglang.VType, origin string) aval {
	return aval{sig: &siglang.Unknown{Type: t, Origin: origin}}
}

func constStr(s string) aval { return aval{sig: siglang.Str(s)} }

// sigOf returns the value's signature, deriving one for objects.
func (v aval) sigOf() siglang.Sig {
	if v.obj != nil {
		switch v.obj.kind {
		case oBuilder:
			if v.obj.buf == nil {
				return siglang.Str("")
			}
			return v.obj.buf
		case oJSONBuild:
			return &siglang.JSON{Root: v.obj.resolvedTree(0)}
		case oEntity:
			return v.obj.text
		case oRespRaw, oRespNode:
			return siglang.AnyString()
		}
	}
	if v.sig == nil {
		return siglang.Any()
	}
	return v.sig
}

// constString returns the constant string value, if the signature is one.
func (v aval) constString() (string, bool) {
	if l, ok := v.sigOf().(*siglang.Lit); ok {
		return l.Val, true
	}
	return "", false
}

func (v aval) withLoc(loc string) aval {
	out := v
	out.locs = cloneSet(v.locs)
	out.locs[loc] = true
	return out
}

func cloneSet(in map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range in {
		out[k] = true
	}
	return out
}

func unionSet(a, b map[string]bool) map[string]bool {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// shared reports whether the object is backed by globally shared state
// (response access trees grow monotonically and must never be forked).
func (o *aobj) shared() bool {
	switch o.kind {
	case oRespNode, oRespXML, oRespRaw:
		return true
	case oTyped:
		return o.respBound
	}
	return false
}

// cloneVal deep-copies the value's object graph so a control-flow branch
// can mutate its own copy. Aliasing within one environment is preserved by
// the memo; shared response-tree objects and signatures are never copied.
func cloneVal(v aval, memo map[*aobj]*aobj) aval {
	out := v
	out.obj = cloneObj(v.obj, memo)
	return out
}

func cloneObj(o *aobj, memo map[*aobj]*aobj) *aobj {
	if o == nil || o.shared() {
		return o
	}
	if c, ok := memo[o]; ok {
		return c
	}
	c := &aobj{}
	*c = *o
	memo[o] = c
	c.body = cloneObj(o.body, memo)
	c.request = cloneObj(o.request, memo)
	c.key = cloneVal(o.key, memo)
	c.val = cloneVal(o.val, memo)
	if o.elems != nil {
		c.elems = make([]aval, len(o.elems))
		for i := range o.elems {
			c.elems[i] = cloneVal(o.elems[i], memo)
		}
	}
	if o.pairs != nil {
		c.pairs = make(map[string]aval, len(o.pairs))
		for k, pv := range o.pairs {
			c.pairs[k] = cloneVal(pv, memo)
		}
		c.order = append([]string(nil), o.order...)
	}
	if o.headers != nil {
		c.headers = append([]siglang.KV(nil), o.headers...)
	}
	c.uriDeps = cloneNonNil(o.uriDeps)
	c.bodyDeps = cloneNonNil(o.bodyDeps)
	if o.nested != nil {
		c.nested = make(map[*siglang.Obj]*aobj, len(o.nested))
		for t, n := range o.nested {
			c.nested[t] = cloneObj(n, memo)
		}
	}
	return c
}

func cloneNonNil(s map[string]bool) map[string]bool {
	if s == nil {
		return nil
	}
	return cloneSet(s)
}

// mergeVals joins two abstract values arriving from different control-flow
// paths (the confluence rule of §3.2).
func mergeVals(a, b aval) aval {
	return mergeValsMemo(a, b, map[[2]*aobj]*aobj{})
}

func mergeValsMemo(a, b aval, memo map[[2]*aobj]*aobj) aval {
	if a.obj != nil && a.obj == b.obj {
		out := a
		out.locs = unionSet(a.locs, b.locs)
		return out
	}
	if a.obj != nil && b.obj != nil {
		m := mergeObjs(a.obj, b.obj, memo)
		return aval{obj: m, locs: unionSet(a.locs, b.locs),
			fromResp: firstResp(a, b), respPath: firstPath(a, b)}
	}
	if a.obj != nil || b.obj != nil {
		// Object on one path only: keep the object, union provenance.
		out := a
		if b.obj != nil {
			out = b
		}
		out.locs = unionSet(a.locs, b.locs)
		return out
	}
	out := aval{
		sig:  siglang.Merge(a.sig, b.sig),
		locs: unionSet(a.locs, b.locs),
	}
	out.fromResp, out.respPath = firstResp(a, b), firstPath(a, b)
	return out
}

func firstResp(a, b aval) *respState {
	if a.fromResp != nil {
		return a.fromResp
	}
	return b.fromResp
}

func firstPath(a, b aval) string {
	if a.fromResp != nil {
		return a.respPath
	}
	return b.respPath
}

// mergeObjs structurally merges two versions of an object (matched or not
// by allocation site) into a fresh object.
func mergeObjs(a, b *aobj, memo map[[2]*aobj]*aobj) *aobj {
	if a == b {
		return a
	}
	if a.shared() || b.shared() {
		return a // shared response state is global; keep one
	}
	key := [2]*aobj{a, b}
	if m, ok := memo[key]; ok {
		return m
	}
	m := &aobj{}
	*m = *a
	memo[key] = m
	if a.kind != b.kind {
		// Different object kinds on two paths: keep the more specific one.
		if a.kind == oOpaque {
			*m = *b
		}
		return m
	}
	m.buf = siglang.Merge(a.buf, b.buf)
	m.uri = siglang.Merge(a.uri, b.uri)
	if m.method == "" {
		m.method = b.method
	}
	m.text = siglang.Merge(a.text, b.text)
	if m.bodyKind == "" {
		m.bodyKind = b.bodyKind
	}
	m.uriDeps = unionSet(a.uriDeps, b.uriDeps)
	m.bodyDeps = unionSet(a.bodyDeps, b.bodyDeps)
	// Headers: union by key.
	m.headers = append([]siglang.KV(nil), a.headers...)
	for _, h := range b.headers {
		dup := false
		for _, e := range m.headers {
			if e.Key == h.Key && siglang.Equal(e.Val, h.Val) {
				dup = true
				break
			}
		}
		if !dup {
			m.headers = append(m.headers, h)
		}
	}
	switch {
	case a.body == nil:
		m.body = b.body
	case b.body == nil:
		m.body = a.body
	default:
		m.body = mergeObjs(a.body, b.body, memo)
	}
	switch {
	case a.request == nil:
		m.request = b.request
	case b.request == nil:
		m.request = a.request
	default:
		m.request = mergeObjs(a.request, b.request, memo)
	}
	m.key = mergeValsMemo(a.key, b.key, memo)
	m.val = mergeValsMemo(a.val, b.val, memo)
	// Lists: pairwise merge when same length, else concatenate as
	// alternatives-in-order.
	if len(a.elems) == len(b.elems) {
		m.elems = make([]aval, len(a.elems))
		for i := range a.elems {
			m.elems[i] = mergeValsMemo(a.elems[i], b.elems[i], memo)
		}
	} else {
		m.elems = append(append([]aval(nil), a.elems...), b.elems...)
		m.open = true
	}
	m.open = m.open || a.open || b.open
	// Maps / typed fields: union keys, merge common values.
	if a.pairs != nil || b.pairs != nil {
		m.pairs = map[string]aval{}
		m.order = nil
		for _, k := range a.order {
			m.order = append(m.order, k)
		}
		for k, v := range a.pairs {
			m.pairs[k] = v
		}
		for _, k := range b.order {
			if _, seen := m.pairs[k]; !seen {
				m.order = append(m.order, k)
			}
		}
		for k, v := range b.pairs {
			if av, ok := m.pairs[k]; ok {
				m.pairs[k] = mergeValsMemo(av, v, memo)
			} else {
				m.pairs[k] = v
			}
		}
	}
	m.tree = siglang.MergeObj(a.tree, b.tree)
	m.jsonTree = siglang.MergeObj(a.jsonTree, b.jsonTree)
	if a.nested != nil || b.nested != nil {
		m.nested = make(map[*siglang.Obj]*aobj, len(a.nested)+len(b.nested))
		for t, n := range a.nested {
			m.nested[t] = n
		}
		for t, n := range b.nested {
			if an, ok := m.nested[t]; ok {
				n = mergeObjs(an, n, memo)
			}
			m.nested[t] = n
		}
	}
	m.lastRep, m.lastRepLoop = nil, 0
	return m
}

// resolvedTree returns the JSONObject builder's tree with each nested
// builder's pair value replaced by that builder's resolved current tree.
// The depth bound, typedToTree's, also ends a builder put into itself.
func (o *aobj) resolvedTree(depth int) *siglang.Obj {
	if len(o.nested) == 0 || depth > 4 {
		return o.tree
	}
	out := &siglang.Obj{Pairs: make([]siglang.KV, len(o.tree.Pairs))}
	for i, kv := range o.tree.Pairs {
		if t, ok := kv.Val.(*siglang.Obj); ok && o.nested[t] != nil {
			kv.Val = o.nested[t].resolvedTree(depth + 1)
		}
		out.Pairs[i] = kv
	}
	return out
}

// env is the per-program-point signature database: register -> value.
type env map[int]aval

func (e env) clone() env {
	memo := map[*aobj]*aobj{}
	out := make(env, len(e))
	for k, v := range e {
		out[k] = cloneVal(v, memo)
	}
	return out
}

// mergeEnvShared joins environments without forking object state: values
// are shared by reference, and only conflicting registers are merged. Used
// along loop-internal edges, where in-place accumulation is intended.
func mergeEnvShared(a, b env) env {
	if a == nil {
		out := make(env, len(b))
		for k, v := range b {
			out[k] = v
		}
		return out
	}
	out := make(env, len(a))
	for k, v := range a {
		out[k] = v
	}
	for r, bv := range b {
		if av, ok := out[r]; ok {
			if av.obj != nil && av.obj == bv.obj {
				continue
			}
			out[r] = mergeVals(av, bv)
		} else {
			out[r] = bv
		}
	}
	return out
}

// mergeEnv joins b into the accumulator a at a confluence point and
// returns it. a is the caller's own (a copy made here, or a returning
// block's environment) and is written in place; a nil a starts from a copy
// of b. b is left unchanged: its block may have other successors, so its
// objects are copied before they join a. The fresh object copies share
// their signatures.
func mergeEnv(a, b env) env {
	if a == nil {
		return b.clone()
	}
	// Copy b under one memo so its aliasing survives the merge.
	memoB := map[*aobj]*aobj{}
	merged := map[[2]*aobj]*aobj{}
	for r, bv := range b {
		bc := cloneVal(bv, memoB)
		if av, ok := a[r]; ok {
			a[r] = mergeValsMemo(av, bc, merged)
		} else {
			a[r] = bc
		}
	}
	return a
}

// typeToVType maps an IR type name to a signature value type.
func typeToVType(t string) siglang.VType {
	switch t {
	case "int", "long", "short", "byte":
		return siglang.VInt
	case "boolean":
		return siglang.VBool
	case "java.lang.String":
		return siglang.VString
	default:
		if strings.HasPrefix(t, "java.lang.") {
			return siglang.VString
		}
		return siglang.VAny
	}
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
