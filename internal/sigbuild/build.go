package sigbuild

import (
	"fmt"
	"sort"

	"extractocol/internal/budget"
	"extractocol/internal/callgraph"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
	"extractocol/internal/siglang"
	"extractocol/internal/slice"
)

// RequestSig is the reconstructed request side of a transaction: method,
// URI signature, headers, body, and the provenance of each part.
type RequestSig struct {
	Method string
	URI    siglang.Sig
	// Headers carries constant-keyed request headers with value signatures.
	Headers []siglang.KV
	// BodyKind is "", "query", "json", "text" or "xml".
	BodyKind string
	// Body is the request body/query-string signature (JSON bodies carry a
	// *siglang.JSON).
	Body siglang.Sig

	// URIDeps / BodyDeps name the heap locations, resources, database rows
	// and prior-response fields ("dp:<site>:<path>") feeding each part.
	URIDeps  []string
	BodyDeps []string
	// FieldDeps maps individual query/JSON body fields to their origins.
	FieldDeps map[string][]string
	// HeaderDeps maps header names to their origins.
	HeaderDeps map[string][]string
}

// ResponseSig is the reconstructed response side: the access signature of
// everything the program reads from the response.
type ResponseSig struct {
	// DPID identifies the demarcation point ("method@index").
	DPID string
	// BodyKind is "json", "xml", "text" or "" (body unused).
	BodyKind string
	JSON     *siglang.Obj
	XML      *siglang.Elem
	// WriteOrigins maps heap locations to the response path stored there
	// (the seed of inter-transaction dependency analysis).
	WriteOrigins map[string]string
	// Sinks lists where response data ends up ("media", "file", "ui").
	Sinks []string
}

// HasBody reports whether the app processes the response body at all.
func (r *ResponseSig) HasBody() bool {
	if r == nil {
		return false
	}
	switch r.BodyKind {
	case "json":
		return r.JSON != nil && len(r.JSON.Pairs) > 0
	case "xml":
		return r.XML != nil
	case "text":
		return true
	}
	return false
}

// Build reconstructs the request and response signatures of one
// transaction by abstractly interpreting its slices.
func Build(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph,
	tx *slice.Transaction) (*RequestSig, *ResponseSig, error) {
	return BuildObs(p, model, cg, tx, nil)
}

// BuildObs is Build with workload counters: methods abstractly interpreted
// are recorded in stats when non-nil. The shard is unsynchronized and must
// be owned by the calling goroutine.
func BuildObs(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph,
	tx *slice.Transaction, stats *obs.Shard) (*RequestSig, *ResponseSig, error) {
	return BuildBudgeted(p, model, cg, tx, stats, nil)
}

// BuildBudgeted is BuildObs under a budget: the interpreter checks one step
// per instruction and stops with a *budget.Exceeded error once a deadline
// or iteration limit trips, leaving the transaction without a signature
// (the orchestrator records the diagnostic). A nil budget is unlimited.
func BuildBudgeted(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph,
	tx *slice.Transaction, stats *obs.Shard, bud *budget.Budget) (*RequestSig, *ResponseSig, error) {
	req, resp, _, err := BuildTraced(p, model, cg, tx, stats, bud)
	return req, resp, err
}

// BuildInfo is the provenance record of one signature construction,
// consumed by the explain layer: how much abstract interpretation the
// transaction's signature cost and how much of it ran outside the entry
// context (the cross-event heap pre-pass).
type BuildInfo struct {
	// MethodsEvaluated counts abstract method interpretations performed
	// (method × calling context, including nested calls and pre-pass
	// rounds).
	MethodsEvaluated int
	// PrePassMethods is the number of distinct slice methods interpreted
	// outside the entry context to populate the abstract heap first.
	PrePassMethods int
}

// BuildTraced is BuildBudgeted plus the BuildInfo provenance record. The
// record is a value — computing it costs two counters, so it is always
// returned and callers discard it when the explain layer is off.
func BuildTraced(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph,
	tx *slice.Transaction, stats *obs.Shard, bud *budget.Budget) (*RequestSig, *ResponseSig, BuildInfo, error) {

	site := fmt.Sprintf("%s@%d", tx.DP.Method, tx.DP.Index)
	bud.MaybePanic(budget.PhaseSigbuild, site)

	filter := tx.Request.Stmts().Clone()
	if tx.Response != nil {
		filter.Union(tx.Response.Stmts())
	}

	dpm := model.Lookup(tx.DPRef)
	if dpm == nil {
		return nil, nil, BuildInfo{}, fmt.Errorf("sigbuild: unmodeled DP %s", tx.DPRef)
	}
	ev := newEvaluator(p, model, tx.DP, dpm, filter, tx.Request.Index())
	ev.stats = stats
	ev.cg = cg
	ev.ck = bud.Checker(budget.PhaseSigbuild, site)

	// Pre-pass: interpret slice methods outside the entry context first
	// (cross-event heap writers such as location callbacks or other
	// transactions' response handlers), so the abstract heap is populated
	// before the request is evaluated. Two rounds settle chained writes.
	reach := cg.ReachableBits(tx.Entry.Method)
	var pre []string
	ev.fmeths.Each(func(id uint32) bool {
		if !reach.Has(id) {
			pre = append(pre, ev.idx.MethodAt(id).Ref())
		}
		return true
	})
	sort.Strings(pre)
	for round := 0; round < 2; round++ {
		for _, ref := range pre {
			m := p.Method(ref)
			if m == nil {
				continue
			}
			ev.evalMethod(m, seedArgs(p, m, ev))
		}
	}

	info := BuildInfo{PrePassMethods: len(pre)}

	// Main pass from the transaction's entry point.
	entry := p.Method(tx.Entry.Method)
	if entry == nil {
		return nil, nil, info, fmt.Errorf("sigbuild: entry %s not found", tx.Entry.Method)
	}
	ev.evalMethod(entry, seedArgs(p, entry, ev))
	info.MethodsEvaluated = ev.methods

	if ev.truncated != nil {
		return nil, nil, info, ev.truncated
	}
	if ev.req == nil {
		return nil, nil, info, fmt.Errorf("sigbuild: demarcation point %s@%d never reached from %s",
			tx.DP.Method, tx.DP.Index, tx.Entry.Method)
	}

	req := assembleRequest(ev)
	var resp *ResponseSig
	if tx.Response != nil {
		resp = assembleResponse(ev, tx)
	}
	return req, resp, info, nil
}

// seedArgs builds entry argument values: typed unknowns, with instance
// receivers modeled as typed objects so field tracking works.
func seedArgs(p *ir.Program, m *ir.Method, ev *evaluator) []aval {
	var args []aval
	if !m.Static {
		args = append(args, ev.newObject(m.Class.Name))
	}
	for _, t := range m.Params {
		args = append(args, unknownVal(typeToVType(t), "param"))
	}
	return args
}

func assembleRequest(ev *evaluator) *RequestSig {
	r := ev.req
	out := &RequestSig{
		Method:     r.method,
		URI:        r.uri,
		Headers:    append([]siglang.KV{}, r.headers...),
		URIDeps:    sortedKeys(r.uriDeps),
		BodyDeps:   sortedKeys(r.bodyDeps),
		FieldDeps:  map[string][]string{},
		HeaderDeps: map[string][]string{},
	}
	if out.Method == "" {
		out.Method = "GET"
	}
	if out.URI == nil {
		out.URI = siglang.AnyString()
	}
	if r.body != nil {
		out.BodyKind = r.body.bodyKind
		switch r.body.bodyKind {
		case "json":
			out.Body = &siglang.JSON{Root: r.body.jsonTree}
		default:
			out.Body = r.body.text
		}
		// A text body whose literals carry key= fragments is a query
		// string (StringBuilder-composed form bodies).
		if out.BodyKind == "text" && len(siglang.Keywords(out.Body)) > 0 {
			out.BodyKind = "query"
		}
		// Field-level provenance recorded on the entity.
		for k, v := range r.body.pairs {
			if ds := sortedKeys(deps(v)); len(ds) > 0 {
				out.FieldDeps[k] = ds
			}
			for d := range deps(v) {
				r.bodyDeps = ensureSet(&r.bodyDeps)
				r.bodyDeps[d] = true
			}
		}
		out.BodyDeps = sortedKeys(r.bodyDeps)
	}
	// Header provenance stored in the request's field map.
	for k, v := range r.pairs {
		if len(k) > 4 && k[:4] == "hdr:" {
			if ds := sortedKeys(deps(v)); len(ds) > 0 {
				out.HeaderDeps[k[4:]] = ds
			}
		}
	}
	// JSON body field deps from the build tree values.
	if r.body != nil && r.body.bodyKind == "json" && r.body.jsonTree != nil {
		collectJSONFieldDeps(ev, r.body.jsonTree, "", out.FieldDeps)
	}
	return out
}

// collectJSONFieldDeps pulls per-field provenance from leaf unknown origins
// that reference heap locations.
func collectJSONFieldDeps(ev *evaluator, o *siglang.Obj, prefix string, out map[string][]string) {
	for _, kv := range o.Pairs {
		if kv.Dyn {
			continue
		}
		path := kv.Key
		if prefix != "" {
			path = prefix + "." + kv.Key
		}
		switch v := kv.Val.(type) {
		case *siglang.Obj:
			collectJSONFieldDeps(ev, v, path, out)
		case *siglang.Unknown:
			if v.Origin != "" && looksLikeLoc(v.Origin) {
				out[path] = append(out[path], v.Origin)
			}
		}
	}
}

func looksLikeLoc(s string) bool {
	for _, p := range []string{"f:", "s:", "db:", "res:", "dp:"} {
		if len(s) > len(p) && s[:len(p)] == p {
			return true
		}
	}
	return false
}

func assembleResponse(ev *evaluator, tx *slice.Transaction) *ResponseSig {
	rs := ev.resp
	out := &ResponseSig{
		DPID:         rs.dpID,
		BodyKind:     rs.bodyKind,
		WriteOrigins: map[string]string{},
	}
	switch rs.bodyKind {
	case "json":
		out.JSON = rs.root
	case "xml":
		out.XML = rs.xmlRoot
	}
	for loc, path := range rs.writeOrigins {
		out.WriteOrigins[loc] = path
	}
	for s := range tx.Sinks {
		out.Sinks = append(out.Sinks, s)
	}
	sort.Strings(out.Sinks)
	// A raw response consumed without structured parsing (file write, UI
	// display) is a text body; a response nobody reads has no body kind.
	if out.BodyKind == "" && tx.RespConsumed {
		out.BodyKind = "text"
	}
	return out
}
