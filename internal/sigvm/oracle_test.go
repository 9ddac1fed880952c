package sigvm

import (
	"encoding/json"
	"fmt"
	"strings"

	"extractocol/internal/siglang"
)

// The interpretive matcher, kept as the equivalence oracle of the compiled
// one. It re-derives everything per call: it renders and compiles the
// signature's regex, rebuilds keyword sets, decodes JSON payloads into
// interface{} trees, re-merges array element signatures and recompiles
// string-leaf regexes. The text, query and XML helpers both sides share
// (AccountText, LiteralFragments, ParseXMLPayload, XMLNodeSize,
// QueryShapedBody) stay in package siglang, so the two cannot drift
// there. On JSON the two share only siglang.LiteralMatches and the
// package's two length helpers, quotedJSONLen and jsonFloatLen: the
// compiled side walks the payload bytes, this side decodes them with
// encoding/json (DecodeJSONPayload) and sizes the decoded values
// (JSONSize), and only the tests hold the two equal. The functions are
// exported so the report-level oracle test in package sigvm_test can
// drive them.

// MatchText reports whether the text payload matches the signature's
// regular expression, and how many payload bytes fall on literal versus
// wildcard parts. The literal accounting uses the signature's constant
// fragments greedily in order, which is exact for the anchored signatures
// the builder produces.
func MatchText(s siglang.Sig, payload string) (bool, siglang.ByteStats) {
	re, err := siglang.Compile(s)
	if err != nil || !re.MatchString(payload) {
		return false, siglang.ByteStats{}
	}
	return true, siglang.AccountText(siglang.LiteralFragments(s), payload)
}

// MatchQuery matches a query string or form body ("k=v&k2=v2") against a
// signature, returning whether every pair with a signature-known key
// matched and byte statistics. Keys the signature knows contribute their
// bytes to Key and their values to Value; unknown pairs land in None.
func MatchQuery(s siglang.Sig, query string) (bool, siglang.ByteStats) {
	known := map[string]bool{}
	for _, k := range siglang.Keywords(s) {
		known[k] = true
	}
	var st siglang.ByteStats
	if query == "" {
		return true, st
	}
	pairs := strings.Split(query, "&")
	for i, p := range pairs {
		sep := 0
		if i > 0 {
			sep = 1 // the '&'
		}
		k, v, found := strings.Cut(p, "=")
		if !found {
			st.None += len(p) + sep
			continue
		}
		if known[k] {
			st.Key += len(k) + 1 + sep // key, '=', '&'
			st.Value += len(v)
		} else {
			st.None += len(p) + sep
		}
	}
	return st.None == 0 || len(known) > 0, st
}

// MatchJSON matches a JSON payload against a JSON/Obj signature.
// ok is true when every constant key in the signature appears in the
// payload (the signature is a valid description of what the app reads or
// writes). Bytes of payload keys known to the signature count as Key,
// their values as Value, and subtrees the signature does not describe as
// None. The array case folds the element signatures with siglang.Merge on
// every call, as the compiled matcher does once at compile time.
func MatchJSON(s siglang.Sig, payload []byte) (bool, siglang.ByteStats, error) {
	v, err := DecodeJSONPayload(payload)
	if err != nil {
		return false, siglang.ByteStats{}, err
	}
	root := s
	if j, isJSON := s.(*siglang.JSON); isJSON {
		root = j.Root
	}
	var st siglang.ByteStats
	ok := matchJSONValue(root, v, &st)
	return ok, st, nil
}

func matchJSONValue(s siglang.Sig, v any, st *siglang.ByteStats) bool {
	switch sv := s.(type) {
	case nil:
		st.None += JSONSize(v)
		return true
	case *siglang.Obj:
		if sv == nil {
			sv = &siglang.Obj{} // typed-nil signature: no keys known
		}
		m, isMap := v.(map[string]any)
		if !isMap {
			st.None += JSONSize(v)
			return false
		}
		ok := true
		// Every sig key must be present.
		for _, kv := range sv.Pairs {
			if kv.Dyn {
				continue
			}
			if _, present := m[kv.Key]; !present {
				ok = false
			}
		}
		var dynVal siglang.Sig
		hasDyn := false
		for _, kv := range sv.Pairs {
			if kv.Dyn {
				hasDyn, dynVal = true, kv.Val
			}
		}
		for k, val := range m {
			if sigVal := sv.Get(k); sigVal != nil || containsKey(sv, k) {
				st.Key += len(k) + 3 // quotes + colon
				if !matchLeafOrRecurse(sigVal, val, st) {
					ok = false
				}
			} else if hasDyn {
				// Dynamically generated keys: value structure may still be known.
				st.Value += len(k) + 3
				if !matchLeafOrRecurse(dynVal, val, st) {
					ok = false
				}
			} else {
				st.None += len(k) + 3 + JSONSize(val)
			}
		}
		return ok
	case *siglang.Arr:
		arr, isArr := v.([]any)
		if !isArr {
			st.None += JSONSize(v)
			return false
		}
		var item siglang.Sig
		for _, e := range sv.Elems {
			item = siglang.Merge(item, e)
		}
		ok := true
		for _, el := range arr {
			if !matchLeafOrRecurse(item, el, st) {
				ok = false
			}
		}
		return ok
	case *siglang.JSON:
		return matchJSONValue(sv.Root, v, st)
	case *siglang.Or:
		// Accept if any alternative accepts; account bytes per best effort
		// using the first matching alternative.
		for _, alt := range sv.Alts {
			var tmp siglang.ByteStats
			if matchJSONValue(alt, v, &tmp) {
				st.Add(tmp)
				return true
			}
		}
		st.None += JSONSize(v)
		return false
	case *siglang.Lit:
		st.Value += JSONSize(v)
		return siglang.LiteralMatches(sv, v)
	case *siglang.Unknown:
		st.Value += JSONSize(v)
		return true
	default: // Concat/Rep describing a string-typed leaf
		st.Value += JSONSize(v)
		str, isStr := v.(string)
		if !isStr {
			return true
		}
		re, err := siglang.Compile(s)
		return err == nil && re.MatchString(str)
	}
}

func containsKey(o *siglang.Obj, k string) bool {
	for _, kv := range o.Pairs {
		if !kv.Dyn && kv.Key == k {
			return true
		}
	}
	return false
}

func matchLeafOrRecurse(sigVal siglang.Sig, val any, st *siglang.ByteStats) bool {
	if sigVal == nil {
		st.Value += JSONSize(val)
		return true
	}
	return matchJSONValue(sigVal, val, st)
}

// DecodeJSONPayload unmarshals a payload into an interface{} tree for
// structural matching.
func DecodeJSONPayload(payload []byte) (any, error) {
	var v any
	if err := json.Unmarshal(payload, &v); err != nil {
		return nil, fmt.Errorf("sigvm: payload is not JSON: %w", err)
	}
	return v, nil
}

// JSONSize returns the serialized size of a decoded JSON value — the byte
// count the Table 2 accounting charges for a subtree.
func JSONSize(v any) int {
	switch t := v.(type) {
	case nil:
		return len("null")
	case bool:
		if t {
			return len("true")
		}
		return len("false")
	case string:
		return quotedJSONLen(t)
	case float64:
		return jsonFloatLen(t)
	case map[string]any:
		if t == nil {
			return len("null")
		}
		// '{' plus, per pair, its bytes and a ',' (the last pair's comma
		// slot is the closing '}'); key order never affects the length.
		n := 1 + len(t)
		if len(t) == 0 {
			n = 2
		}
		for k, e := range t {
			n += quotedJSONLen(k) + 1 + JSONSize(e)
		}
		return n
	case []any:
		if t == nil {
			return len("null")
		}
		n := 1 + len(t)
		if len(t) == 0 {
			n = 2
		}
		for _, e := range t {
			n += JSONSize(e)
		}
		return n
	default:
		// Not a shape DecodeJSONPayload produces; defer to the encoder.
		b, err := json.Marshal(v)
		if err != nil {
			return 0
		}
		return len(b)
	}
}

// MatchXML matches an XML payload against an XML signature: every tag and
// attribute named by the signature must occur in the payload. Byte
// accounting mirrors MatchJSON at element granularity.
func MatchXML(s *siglang.XML, payload []byte) (bool, siglang.ByteStats, error) {
	root, err := siglang.ParseXMLPayload(payload)
	if err != nil {
		return false, siglang.ByteStats{}, err
	}
	var st siglang.ByteStats
	if s == nil || s.Root == nil {
		st.None = len(payload)
		return true, st, nil
	}
	ok := matchElem(s.Root, root, &st)
	return ok, st, nil
}

func matchElem(sig *siglang.Elem, node *siglang.XMLNode, st *siglang.ByteStats) bool {
	if sig == nil || node == nil {
		return sig == nil
	}
	if sig.Tag == "*" {
		// Wildcard root (the parser's document node): every named child of
		// the signature must occur somewhere in the payload tree.
		ok := true
		for _, sc := range sig.Children {
			if sc == nil { // a nil child constrains nothing
				continue
			}
			found := findNode(node, sc.Tag)
			if found == nil {
				ok = false
				continue
			}
			if !matchElem(sc, found, st) {
				ok = false
			}
		}
		return ok
	}
	if sig.Tag != node.Tag {
		return false
	}
	st.Key += len(node.Tag)*2 + 5 // open+close tags
	ok := true
	for _, a := range sig.Attrs {
		if v, present := node.Attrs[a.Key]; present {
			st.Key += len(a.Key) + 3
			st.Value += len(v)
		} else {
			ok = false
		}
	}
	for k, v := range node.Attrs {
		if !elemHasAttr(sig, k) {
			st.None += len(k) + 3 + len(v)
		}
	}
	for _, sc := range sig.Children {
		if sc == nil {
			continue
		}
		found := false
		for _, nc := range node.Children {
			if nc.Tag == sc.Tag {
				if matchElem(sc, nc, st) {
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
		if !elemHasChild(sig, nc.Tag) {
			st.None += siglang.XMLNodeSize(nc)
		}
	}
	if sig.Text != nil {
		st.Value += len(strings.TrimSpace(node.Text))
	} else {
		st.None += len(strings.TrimSpace(node.Text))
	}
	return ok
}

func findNode(n *siglang.XMLNode, tag string) *siglang.XMLNode {
	if n.Tag == tag {
		return n
	}
	for _, c := range n.Children {
		if f := findNode(c, tag); f != nil {
			return f
		}
	}
	return nil
}

func elemHasAttr(e *siglang.Elem, k string) bool {
	for _, a := range e.Attrs {
		if a.Key == k {
			return true
		}
	}
	return false
}

func elemHasChild(e *siglang.Elem, tag string) bool {
	for _, c := range e.Children {
		if c != nil && c.Tag == tag {
			return true
		}
	}
	return false
}
