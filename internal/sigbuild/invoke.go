package sigbuild

import (
	"slices"

	"extractocol/internal/ir"
	"extractocol/internal/semmodel"
	"extractocol/internal/siglang"
	"extractocol/internal/taint"
)

// evalInvoke interprets a call according to the semantic model (modeled
// library methods), recurses into application callees that contribute slice
// statements, and captures the request/response at demarcation points.
func (ev *evaluator) evalInvoke(m *ir.Method, idx int, in *ir.Instr, en env, loop int) {
	arg := func(i int) aval {
		if i < len(in.Args) && in.Args[i] != ir.NoReg {
			return en[in.Args[i]]
		}
		return unknownVal(siglang.VAny, "")
	}
	setDst := func(v aval) {
		if in.Dst != ir.NoReg {
			en[in.Dst] = v
		}
	}

	here := taint.StmtID{Method: m.Ref(), Index: idx}
	mm := ev.model.Lookup(in.Sym)

	// Demarcation points: capture the request; seed the response.
	if mm != nil && mm.DP {
		ev.atDP(m, idx, in, en, mm, here)
		return
	}

	if mm != nil {
		ev.evalModeled(m, idx, in, en, mm, arg, setDst, loop)
		return
	}

	// Constructors of app/unknown classes.
	if isInit(in.Sym) {
		recv := arg(0)
		if recv.obj != nil && recv.obj.kind == oRequest && recv.obj.uri == nil && len(in.Args) > 1 {
			recv.obj.uri = arg(1).sigOf()
		}
		return
	}

	// Application callee: recurse when it carries slice statements.
	callee := ev.resolveCallee(m, in)
	if callee != nil && ev.filteredMethod(callee.Ref()) {
		args := make([]aval, len(in.Args))
		for i := range in.Args {
			args[i] = arg(i)
		}
		setDst(ev.evalMethod(callee, args))
		return
	}
	setDst(unknownVal(siglang.VAny, in.Sym))
}

func isInit(sym string) bool {
	_, name, ok := ir.SplitRef(sym)
	return ok && name == "<init>"
}

func (ev *evaluator) resolveCallee(m *ir.Method, in *ir.Instr) *ir.Method {
	cls, name, ok := ir.SplitRef(in.Sym)
	if !ok {
		return nil
	}
	// Prefer the inferred receiver type.
	if len(in.Args) > 0 {
		types := ev.types(m)
		if r := in.Args[0]; r >= 0 && r < len(types) && types[r] != "" {
			if t := ev.prog.ResolveMethod(types[r], name); t != nil {
				return t
			}
		}
	}
	if t := ev.prog.ResolveMethod(cls, name); t != nil {
		return t
	}
	// Single implementer of an interface.
	impls := ev.idx.Implementers(cls)
	if len(impls) == 1 {
		return ev.prog.ResolveMethod(impls[0], name)
	}
	return nil
}

// atDP captures the request object state and seeds the response value.
func (ev *evaluator) atDP(m *ir.Method, idx int, in *ir.Instr, en env,
	mm *semmodel.Method, here taint.StmtID) {

	var reqObj *aobj
	if mm.ReqArg >= 0 && mm.ReqArg < len(in.Args) {
		reqObj = ev.asRequest(en[in.Args[mm.ReqArg]], mm)
	}

	isPrimary := here == ev.dp
	if isPrimary && reqObj != nil {
		reqObj = cloneObj(reqObj, map[*aobj]*aobj{})
		if ev.req == nil {
			ev.req = reqObj
		} else {
			merged := mergeVals(aval{obj: ev.req}, aval{obj: reqObj})
			if merged.obj != nil {
				ev.req = merged.obj
			}
		}
	}

	// Response value.
	var rs *respState
	if isPrimary {
		rs = ev.resp
	} else {
		key := fmtDP(here)
		if ev.respSec[key] == nil {
			ev.respSec[key] = &respState{dpID: key, root: &siglang.Obj{},
				writeOrigins: map[string]string{}}
		}
		rs = ev.respSec[key]
	}

	if mm.RespRet && in.Dst != ir.NoReg {
		en[in.Dst] = aval{obj: &aobj{kind: oRespRaw, resp: rs}, fromResp: rs}
	}
	if mm.CallbackMethod != "" && mm.CallbackArg < len(in.Args) {
		// Asynchronous DP: interpret the callback with the response bound
		// to its first parameter.
		cbv := en[in.Args[mm.CallbackArg]]
		cbClass := ""
		if cbv.obj != nil {
			cbClass = cbv.obj.class
		}
		if cbClass != "" {
			if target := ev.prog.ResolveMethod(cbClass, mm.CallbackMethod); target != nil && ev.filteredMethod(target.Ref()) {
				respArg := aval{obj: &aobj{kind: oRespRaw, resp: rs}, fromResp: rs}
				args := []aval{cbv, respArg}
				if target.Static {
					args = []aval{respArg}
				}
				ev.evalMethod(target, args)
			}
		}
	}
}

// asRequest coerces the value at the DP's request position into a request
// object: an explicit request, an okhttp Call, a URL/conn, or a bare URI.
func (ev *evaluator) asRequest(v aval, mm *semmodel.Method) *aobj {
	if v.obj != nil {
		switch v.obj.kind {
		case oRequest:
			return v.obj
		case oCall:
			return v.obj.request
		case oURL:
			return &aobj{kind: oRequest, uri: v.obj.uri, method: "GET",
				uriDeps: v.obj.uriDeps, bodyDeps: map[string]bool{}}
		}
	}
	// Bare URI (MediaPlayer.setDataSource, WebView.loadUrl).
	method := mm.HTTPMethod
	if method == "" {
		method = "GET"
	}
	r := &aobj{kind: oRequest, uri: v.sigOf(), method: method,
		uriDeps: deps(v), bodyDeps: map[string]bool{}}
	return r
}

// evalModeled interprets a modeled (non-DP) library call.
func (ev *evaluator) evalModeled(m *ir.Method, idx int, in *ir.Instr, en env,
	mm *semmodel.Method, arg func(int) aval, setDst func(aval), loop int) {

	recv := arg(0)

	switch mm.Kind {
	// ---- Strings -------------------------------------------------------
	case semmodel.KStringBuilderInit:
		o := recv.obj
		if o == nil {
			o = &aobj{kind: oBuilder}
		}
		o.kind = oBuilder
		o.buf = siglang.Str("")
		o.lastRep = nil
		if len(in.Args) > 1 {
			o.buf = arg(1).sigOf()
			o.uriDeps = unionSet(o.uriDeps, deps(arg(1)))
		}
	case semmodel.KAppend:
		ev.evalAppend(recv, arg(1), loop)
		setDst(recv)
	case semmodel.KToString:
		if recv.obj != nil && recv.obj.kind == oBuilder {
			setDst(aval{sig: recv.obj.buf, locs: recv.obj.uriDeps,
				fromResp: recv.fromResp, respPath: recv.respPath})
			return
		}
		if recv.obj != nil && (recv.obj.kind == oRespRaw || recv.obj.kind == oRespNode) {
			setDst(aval{sig: siglang.AnyString(), fromResp: recv.obj.resp,
				respPath: recv.obj.respPath})
			return
		}
		setDst(aval{sig: recv.sigOf(), locs: recv.locs, fromResp: recv.fromResp, respPath: recv.respPath})
	case semmodel.KStringConcat:
		out := aval{sig: siglang.Cat(recv.sigOf(), arg(1).sigOf()),
			locs: unionSet(deps(recv), deps(arg(1)))}
		setDst(out)
	case semmodel.KValueOf:
		v := arg(0)
		if in.Kind != ir.InvokeStatic {
			v = recv
		}
		setDst(aval{sig: v.sigOf(), locs: deps(v), fromResp: v.fromResp, respPath: v.respPath})
	case semmodel.KURLEncode:
		setDst(encodeConst(arg(0)))
	case semmodel.KPassThrough, semmodel.KStringFormatIdentity:
		v := recv
		if in.Kind == ir.InvokeStatic {
			v = arg(0)
		}
		setDst(aval{sig: v.sigOf(), obj: passThroughObj(v), locs: v.locs,
			fromResp: v.fromResp, respPath: v.respPath})
	case semmodel.KStringEquals:
		setDst(unknownVal(siglang.VBool, "equals"))

	// ---- HTTP request construction --------------------------------------
	case semmodel.KHTTPReqInit:
		o := recv.obj
		if o == nil {
			o = &aobj{}
		}
		o.kind = oRequest
		o.method = mm.HTTPMethod
		if o.method == "" {
			o.method = "GET"
		}
		o.uriDeps = map[string]bool{}
		o.bodyDeps = map[string]bool{}
		// First string-like argument is the URI; a JSON-building argument
		// becomes the body; an integer constant selects the verb (volley's
		// JsonObjectRequest(method, url, body, listener)).
		for i := 1; i < len(in.Args); i++ {
			v := arg(i)
			if l, isLit := v.sigOf().(*siglang.Lit); isLit && l.Num {
				if verb := volleyVerb(l.Val); verb != "" {
					o.method = verb
					continue
				}
			}
			if v.obj != nil && v.obj.kind == oJSONBuild {
				o.body = &aobj{kind: oEntity, bodyKind: "json", jsonTree: v.obj.resolvedTree(0)}
				if o.method == "GET" {
					o.method = "POST"
				}
				addDeps(o.bodyDeps, v)
				continue
			}
			if o.uri == nil {
				if l, isLit := v.sigOf().(*siglang.Lit); isLit && l.Num {
					continue
				}
				switch v.sigOf().(type) {
				case *siglang.Lit, *siglang.Concat, *siglang.Unknown, *siglang.Or, *siglang.Rep:
					o.uri = v.sigOf()
					for d := range deps(v) {
						o.uriDeps[d] = true
					}
				}
			}
		}
	case semmodel.KHTTPSetEntity:
		if recv.obj != nil && recv.obj.kind == oRequest {
			body := arg(1)
			if body.obj != nil && body.obj.kind == oEntity {
				recv.obj.body = body.obj
			}
			addDeps(recv.obj.bodyDeps, body)
		}
	case semmodel.KHTTPAddHeader, semmodel.KConnSetHeader, semmodel.KOkHeader:
		if recv.obj != nil {
			k, _ := arg(1).constString()
			recv.obj.headers = append(recv.obj.headers,
				siglang.KV{Key: k, Dyn: k == "", Val: arg(2).sigOf()})
			if recv.obj.pairs == nil {
				recv.obj.pairs = map[string]aval{}
			}
			recv.obj.pairs["hdr:"+k] = arg(2)
		}
		if mm.Kind == semmodel.KOkHeader {
			setDst(recv)
		}
	case semmodel.KStringEntityInit:
		o := recv.obj
		if o == nil {
			o = &aobj{}
		}
		o.kind = oEntity
		v := arg(1)
		o.text = v.sigOf()
		if j, isJSON := v.sigOf().(*siglang.JSON); isJSON {
			o.bodyKind = "json"
			if t, isObj := j.Root.(*siglang.Obj); isObj {
				o.jsonTree = t
			}
		} else {
			o.bodyKind = "text"
		}
		o.uriDeps = deps(v)
	case semmodel.KFormEntityInit:
		o := recv.obj
		if o == nil {
			o = &aobj{}
		}
		o.kind = oEntity
		o.bodyKind = "query"
		list := arg(1)
		if list.obj != nil && list.obj.kind == oList {
			var parts []siglang.Sig
			fieldDeps := map[string]aval{}
			for i, el := range list.obj.elems {
				if i > 0 {
					parts = append(parts, siglang.Str("&"))
				}
				if el.obj != nil && el.obj.kind == oNVPair {
					parts = append(parts, el.obj.key.sigOf(), siglang.Str("="), encodeConst(el.obj.val).sigOf())
					if k, ok := el.obj.key.constString(); ok {
						fieldDeps[k] = el.obj.val
					}
				} else {
					parts = append(parts, el.sigOf())
				}
			}
			body := siglang.Cat(parts...)
			if list.obj.open {
				body = siglang.Repeat(body)
			}
			o.text = body
			if o.pairs == nil {
				o.pairs = map[string]aval{}
			}
			for k, v := range fieldDeps {
				o.pairs[k] = v
			}
		}
	case semmodel.KMultipartCreate:
		setDst(aval{obj: &aobj{kind: oEntity, bodyKind: "multipart"}})
	case semmodel.KMultipartAddPart:
		if recv.obj != nil && recv.obj.kind == oEntity {
			recv.obj.elems = append(recv.obj.elems,
				aval{obj: &aobj{kind: oNVPair, key: arg(1), val: arg(2)}})
			if loop >= 0 {
				recv.obj.open = true
			}
		}
		setDst(recv)
	case semmodel.KMultipartBuild:
		if recv.obj != nil && recv.obj.kind == oEntity {
			var parts []siglang.Sig
			for i, el := range recv.obj.elems {
				if i > 0 {
					parts = append(parts, siglang.Str("&"))
				}
				if el.obj != nil && el.obj.kind == oNVPair {
					parts = append(parts, el.obj.key.sigOf(), siglang.Str("="), el.obj.val.sigOf())
					if k, ok := el.obj.key.constString(); ok {
						if recv.obj.pairs == nil {
							recv.obj.pairs = map[string]aval{}
						}
						recv.obj.pairs[k] = el.obj.val
					}
				} else {
					parts = append(parts, el.sigOf())
				}
			}
			body := siglang.Cat(parts...)
			if recv.obj.open {
				body = siglang.Repeat(body)
			}
			recv.obj.text = body
		}
		setDst(recv)
	case semmodel.KNVPairInit:
		o := recv.obj
		if o == nil {
			o = &aobj{}
		}
		o.kind = oNVPair
		o.key = arg(1)
		o.val = arg(2)

	// ---- Raw TCP sockets ----------------------------------------------------
	case semmodel.KSocketInit:
		o := recv.obj
		if o == nil {
			o = &aobj{}
		}
		o.kind = oRequest
		o.method = "TCP"
		o.uri = siglang.Cat(siglang.Str("tcp://"), arg(1).sigOf(), siglang.Str(":"), arg(2).sigOf())
		o.uriDeps = unionSet(deps(arg(1)), deps(arg(2)))
		o.bodyDeps = map[string]bool{}

	// ---- java.net.URL / HttpURLConnection ---------------------------------
	case semmodel.KURLInit:
		o := recv.obj
		if o == nil {
			o = &aobj{}
		}
		o.kind = oURL
		o.uri = arg(1).sigOf()
		o.uriDeps = deps(arg(1))
	case semmodel.KOpenConnection:
		o := &aobj{kind: oRequest, method: "GET", uriDeps: map[string]bool{}, bodyDeps: map[string]bool{}}
		if recv.obj != nil && recv.obj.kind == oURL {
			o.uri = recv.obj.uri
			o.uriDeps = cloneSet(recv.obj.uriDeps)
		}
		setDst(aval{obj: o})
	case semmodel.KConnSetMethod:
		if recv.obj != nil {
			if s, ok := arg(1).constString(); ok {
				recv.obj.method = s
			}
		}
	case semmodel.KConnGetOutput:
		if recv.obj != nil && recv.obj.kind == oRequest {
			if recv.obj.body == nil {
				recv.obj.body = &aobj{kind: oEntity, bodyKind: "text", text: siglang.Str("")}
			}
			setDst(aval{obj: recv.obj.body})
			if recv.obj.method == "GET" {
				recv.obj.method = "POST"
			}
			return
		}
		setDst(unknownVal(siglang.VAny, "stream"))
	case semmodel.KStreamWrap:
		// Stream decorator constructor (GZIPInputStream, BufferedReader,
		// InputStreamReader, ...): the wrapper aliases the wrapped stream,
		// so reads and writes reach the underlying response or request
		// entity transparently.
		if len(in.Args) > 1 && in.Args[0] != ir.NoReg {
			en[in.Args[0]] = arg(1)
		}
	case semmodel.KStreamWrite:
		if recv.obj != nil && recv.obj.kind == oEntity {
			v := arg(1)
			recv.obj.text = siglang.Cat(recv.obj.text, v.sigOf())
			if j, isJSON := v.sigOf().(*siglang.JSON); isJSON {
				recv.obj.bodyKind = "json"
				if t, isObj := j.Root.(*siglang.Obj); isObj {
					recv.obj.jsonTree = t
				}
			}
			addDeps(ensureSet(&recv.obj.uriDeps), v)
		}

	// ---- okhttp ------------------------------------------------------------
	case semmodel.KOkRequestBuilder:
		o := recv.obj
		if o == nil {
			o = &aobj{}
		}
		o.kind = oRequest
		o.method = "GET"
		o.uriDeps = map[string]bool{}
		o.bodyDeps = map[string]bool{}
	case semmodel.KOkURL:
		if recv.obj != nil {
			recv.obj.uri = arg(1).sigOf()
			recv.obj.uriDeps = deps(arg(1))
		}
		setDst(recv)
	case semmodel.KOkPost:
		if recv.obj != nil {
			recv.obj.method = "POST"
			b := arg(1)
			if b.obj != nil && b.obj.kind == oEntity {
				recv.obj.body = b.obj
			}
			addDeps(ensureSet(&recv.obj.bodyDeps), b)
		}
		setDst(recv)
	case semmodel.KOkBuild:
		setDst(recv)
	case semmodel.KOkNewCall:
		req := arg(1)
		o := &aobj{kind: oCall}
		if req.obj != nil {
			o.request = req.obj
		}
		setDst(aval{obj: o})
	case semmodel.KOkBodyCreate:
		o := &aobj{kind: oEntity}
		v := arg(len(in.Args) - 1)
		o.text = v.sigOf()
		o.bodyKind = "text"
		if j, isJSON := v.sigOf().(*siglang.JSON); isJSON {
			o.bodyKind = "json"
			if t, isObj := j.Root.(*siglang.Obj); isObj {
				o.jsonTree = t
			}
		}
		setDst(aval{obj: o})

	// ---- Response access ----------------------------------------------------
	case semmodel.KRespGetEntity, semmodel.KEntityContent, semmodel.KReadStream,
		semmodel.KRespBody:
		v := recv
		if in.Kind == ir.InvokeStatic {
			v = arg(0)
		}
		if v.obj != nil && v.obj.resp != nil {
			setDst(aval{obj: &aobj{kind: oRespRaw, resp: v.obj.resp}, fromResp: v.obj.resp})
			return
		}
		if v.fromResp != nil {
			setDst(aval{obj: &aobj{kind: oRespRaw, resp: v.fromResp}, fromResp: v.fromResp})
			return
		}
		setDst(aval{sig: siglang.AnyString(), locs: v.locs})
	case semmodel.KRespGetHeader:
		rsp := respOf(recv)
		out := unknownVal(siglang.VString, "header")
		if rsp != nil {
			out.fromResp, out.respPath = rsp, "header:"+constOr(arg(1), "*")
		}
		setDst(out)

	// ---- JSON -----------------------------------------------------------------
	case semmodel.KJSONInit:
		o := recv.obj
		if o == nil {
			o = &aobj{}
		}
		o.kind = oJSONBuild
		o.tree = &siglang.Obj{}
	case semmodel.KJSONParse:
		src := arg(0)
		if in.Kind != ir.InvokeStatic && len(in.Args) > 1 {
			src = arg(1)
		}
		if rsp := respOf(src); rsp != nil {
			rsp.bodyKind = "json"
			setDst(respNodeVal(rsp, rsp.root, ""))
			return
		}
		// Parsing a non-response string: opaque JSON object.
		o := &aobj{kind: oJSONBuild, tree: &siglang.Obj{}}
		setDst(aval{obj: o, locs: deps(src)})
	case semmodel.KJSONPut:
		ev.evalJSONPut(recv, arg(1), arg(2), loop)
		setDst(recv)
	case semmodel.KJSONGetStr, semmodel.KJSONGetInt, semmodel.KJSONGetBool:
		setDst(ev.evalJSONGetLeaf(recv, arg(1), mm.Kind))
	case semmodel.KJSONGetObj:
		setDst(ev.evalJSONGetObj(recv, arg(1)))
	case semmodel.KJSONGetArr:
		setDst(ev.evalJSONGetArr(recv, arg(1)))
	case semmodel.KJSONArrGet:
		// Element of a response array: the array's element object.
		if recv.obj != nil && recv.obj.kind == oRespNode && recv.obj.node != nil {
			setDst(respNodeVal(recv.obj.resp, recv.obj.node, recv.obj.respPath))
			return
		}
		setDst(unknownVal(siglang.VAny, "arr"))
	case semmodel.KJSONArrLen:
		setDst(unknownVal(siglang.VInt, "len"))
	case semmodel.KJSONToString:
		if recv.obj != nil && recv.obj.kind == oJSONBuild {
			setDst(aval{sig: recv.sigOf(), locs: recv.locs})
			return
		}
		if rsp := respOf(recv); rsp != nil {
			setDst(aval{sig: siglang.AnyString(), fromResp: rsp, respPath: recv.obj.respPath})
			return
		}
		setDst(aval{sig: siglang.AnyString()})

	// ---- gson / jackson (reflection) ------------------------------------------
	case semmodel.KGsonFromJSON:
		src := arg(1)
		clsName := constOr(arg(2), "")
		if rsp := respOf(src); rsp != nil {
			rsp.bodyKind = "json"
			o := &aobj{kind: oTyped, class: clsName, respBound: true,
				resp: rsp, node: rsp.root, pairs: map[string]aval{}}
			setDst(aval{obj: o, fromResp: rsp})
			return
		}
		setDst(unknownVal(siglang.VAny, "fromJson"))
	case semmodel.KGsonToJSON:
		v := arg(1)
		if v.obj != nil && v.obj.kind == oTyped {
			tree := ev.typedToTree(v.obj, 0)
			setDst(aval{sig: &siglang.JSON{Root: tree}, locs: v.locs})
			return
		}
		setDst(aval{sig: siglang.AnyString(), locs: v.locs})

	// ---- XML ---------------------------------------------------------------------
	case semmodel.KXMLParse:
		src := arg(0)
		if in.Kind != ir.InvokeStatic && len(in.Args) > 1 {
			src = arg(1)
		}
		if rsp := respOf(src); rsp != nil {
			rsp.bodyKind = "xml"
			if rsp.xmlRoot == nil {
				rsp.xmlRoot = &siglang.Elem{Tag: "*"}
			}
			setDst(aval{obj: &aobj{kind: oRespXML, resp: rsp, elem: rsp.xmlRoot}, fromResp: rsp})
			return
		}
		setDst(unknownVal(siglang.VAny, "xml"))
	case semmodel.KXMLGetTag:
		if recv.obj != nil && recv.obj.kind == oRespXML && recv.obj.elem != nil {
			tag := constOr(arg(1), "*")
			child := findOrAddElem(recv.obj.elem, tag)
			setDst(aval{obj: &aobj{kind: oRespXML, resp: recv.obj.resp, elem: child,
				respPath: joinPath(recv.obj.respPath, tag)}, fromResp: recv.obj.resp,
				respPath: joinPath(recv.obj.respPath, tag)})
			return
		}
		setDst(unknownVal(siglang.VAny, "elem"))
	case semmodel.KXMLGetAttr:
		if recv.obj != nil && recv.obj.kind == oRespXML && recv.obj.elem != nil {
			name := constOr(arg(1), "*")
			recv.obj.elem.Attrs = append(recv.obj.elem.Attrs,
				siglang.KV{Key: name, Val: siglang.AnyString()})
			p := joinPath(recv.obj.respPath, "@"+name)
			setDst(aval{sig: siglang.AnyString(), fromResp: recv.obj.resp, respPath: p})
			return
		}
		setDst(unknownVal(siglang.VString, "attr"))
	case semmodel.KXMLGetText:
		if recv.obj != nil && recv.obj.kind == oRespXML && recv.obj.elem != nil {
			recv.obj.elem.Text = siglang.AnyString()
			setDst(aval{sig: siglang.AnyString(), fromResp: recv.obj.resp,
				respPath: joinPath(recv.obj.respPath, "#text")})
			return
		}
		setDst(unknownVal(siglang.VString, "text"))

	// ---- Containers -----------------------------------------------------------------
	case semmodel.KListInit:
		o := recv.obj
		if o == nil {
			o = &aobj{}
		}
		o.kind = oList
	case semmodel.KListAdd:
		if recv.obj != nil && recv.obj.kind == oList {
			recv.obj.elems = append(recv.obj.elems, arg(1))
			if loop >= 0 {
				recv.obj.open = true
			}
		}
	case semmodel.KListGet:
		if recv.obj != nil && recv.obj.kind == oList && len(recv.obj.elems) > 0 {
			out := recv.obj.elems[0]
			for _, el := range recv.obj.elems[1:] {
				out = mergeVals(out, el)
			}
			setDst(out)
			return
		}
		setDst(unknownVal(siglang.VAny, "list"))
	case semmodel.KMapInit, semmodel.KCVInit:
		o := recv.obj
		if o == nil {
			o = &aobj{}
		}
		o.kind = oMap
		o.pairs = map[string]aval{}
	case semmodel.KMapPut, semmodel.KCVPut:
		if recv.obj != nil {
			if recv.obj.pairs == nil {
				recv.obj.pairs = map[string]aval{}
			}
			if k, ok := arg(1).constString(); ok {
				if _, seen := recv.obj.pairs[k]; !seen {
					recv.obj.order = append(recv.obj.order, k)
				}
				recv.obj.pairs[k] = arg(2)
			}
		}
	case semmodel.KMapGet:
		if recv.obj != nil && recv.obj.pairs != nil {
			if k, ok := arg(1).constString(); ok {
				if v, present := recv.obj.pairs[k]; present {
					setDst(v)
					return
				}
			}
		}
		setDst(unknownVal(siglang.VAny, "map"))

	// ---- Android: resources, database -------------------------------------------------
	case semmodel.KResGetString:
		key := constOr(arg(1), "")
		if v, ok := ev.prog.Resources[key]; ok && key != "" {
			setDst(aval{sig: siglang.Str(v), locs: map[string]bool{"res:" + key: true}})
			return
		}
		setDst(unknownVal(siglang.VString, "res:"+key).withLoc("res:" + key))
	case semmodel.KDBQuery:
		loc := ev.dbLoc(m, idx, in, en)
		if v, ok := ev.heap[loc]; ok {
			setDst(cloneVal(v, map[*aobj]*aobj{}).withLoc(loc))
			return
		}
		setDst(unknownVal(siglang.VString, loc).withLoc(loc))
	case semmodel.KDBInsert, semmodel.KDBUpdate:
		table := constOr(arg(1), "*")
		values := arg(2)
		if values.obj != nil && values.obj.pairs != nil {
			for _, col := range values.obj.order {
				v := values.obj.pairs[col]
				loc := "db:" + table + "." + col
				ev.recordWriteOrigin(loc, v)
				ev.heapWrite(loc, v)
			}
		}

	// ---- Sinks / sources (already recorded by the slicer) ------------------------------
	case semmodel.KFileWrite, semmodel.KUIDisplay, semmodel.KMicRead,
		semmodel.KCameraRead, semmodel.KLocationGet, semmodel.KDeviceID:
		setDst(unknownVal(siglang.VAny, mm.Ref))

	// ---- Async registrations (control handled by the call graph) -----------------------
	case semmodel.KAsyncExecute, semmodel.KThreadStart, semmodel.KTimerSchedule,
		semmodel.KHandlerPost, semmodel.KFutureSubmit, semmodel.KRxSubscribe:
		cb := recv
		if mm.CallbackArg < len(in.Args) {
			cb = arg(mm.CallbackArg)
		}
		if cb.obj != nil && cb.obj.class != "" {
			if target := ev.prog.ResolveMethod(cb.obj.class, mm.CallbackMethod); target != nil && ev.filteredMethod(target.Ref()) {
				args := []aval{cb}
				for i := mm.CallbackArg + 1; i < len(in.Args); i++ {
					args = append(args, arg(i))
				}
				ret := ev.evalMethod(target, args)
				// AsyncTask chain: result flows into onPostExecute.
				if mm.Kind == semmodel.KAsyncExecute {
					if post := ev.prog.ResolveMethod(cb.obj.class, "onPostExecute"); post != nil && ev.filteredMethod(post.Ref()) {
						ev.evalMethod(post, []aval{cb, ret})
					}
				}
			}
		}

	default:
		setDst(unknownVal(siglang.VAny, mm.Ref))
	}
}

// volleyVerb maps com.android.volley.Request.Method constants to verbs.
func volleyVerb(v string) string {
	switch v {
	case "0":
		return "GET"
	case "1":
		return "POST"
	case "2":
		return "PUT"
	case "3":
		return "DELETE"
	}
	return ""
}

func ensureSet(s *map[string]bool) map[string]bool {
	if *s == nil {
		*s = map[string]bool{}
	}
	return *s
}

func passThroughObj(v aval) *aobj { return v.obj }

func respOf(v aval) *respState {
	if v.obj != nil && v.obj.resp != nil {
		return v.obj.resp
	}
	return v.fromResp
}

func constOr(v aval, def string) string {
	if s, ok := v.constString(); ok {
		return s
	}
	return def
}

// evalAppend accumulates onto a builder; inside a loop the appended parts
// widen into a repetition marker (rep{...} of §3.2).
func (ev *evaluator) evalAppend(recv, v aval, loop int) {
	o := recv.obj
	if o == nil || o.kind != oBuilder {
		return
	}
	s := v.sigOf()
	addDeps(ensureSet(&o.uriDeps), v)
	if loop >= 0 {
		if o.lastRep != nil && o.lastRepLoop == loop {
			// Same loop iteration context: swap buf's last part, lastRep,
			// for a wider repetition; a toString result may hold the old.
			rep := &siglang.Rep{Body: siglang.Cat(o.lastRep.Body, s)}
			var head siglang.Sig
			if c, ok := o.buf.(*siglang.Concat); ok {
				head = &siglang.Concat{Parts: c.Parts[:len(c.Parts)-1]}
			}
			o.buf, o.lastRep = siglang.Cat(head, rep), rep
			return
		}
		rep := &siglang.Rep{Body: s}
		o.buf = siglang.Cat(o.buf, rep)
		o.lastRep, o.lastRepLoop = rep, loop
		return
	}
	o.lastRep = nil
	o.buf = siglang.Cat(o.buf, s)
}

// evalJSONPut adds a key/value pair to a JSON object under construction,
// in a copy of the tree: the old one may already be held. Outside a loop a
// constant key's pair replaces the one it had, as Java's put does; other
// keys add a dynamic pair. A nested builder is put as its current tree and
// recorded in nested.
func (ev *evaluator) evalJSONPut(recv, key, val aval, loop int) {
	o := recv.obj
	if o == nil || o.kind != oJSONBuild {
		return
	}
	var vs siglang.Sig
	switch {
	case val.obj != nil && val.obj.kind == oJSONBuild:
		vs = val.obj.tree
		if o.nested == nil {
			o.nested = map[*siglang.Obj]*aobj{}
		}
		o.nested[val.obj.tree] = val.obj
	case val.obj != nil && val.obj.kind == oList:
		a := &siglang.Arr{Open: val.obj.open}
		for _, el := range val.obj.elems {
			a.Elems = append(a.Elems, el.sigOf())
		}
		vs = a
	default:
		vs = val.sigOf()
	}
	k, ok := key.constString()
	if !ok || loop >= 0 {
		o.tree = siglang.MergeObj(o.tree, &siglang.Obj{Pairs: []siglang.KV{{Dyn: true, Val: vs}}})
		return
	}
	if o.pairs == nil {
		o.pairs = map[string]aval{}
	}
	o.pairs[k] = val
	pairs := append(make([]siglang.KV, 0, len(o.tree.Pairs)+1), o.tree.Pairs...)
	i := slices.IndexFunc(pairs, func(kv siglang.KV) bool { return !kv.Dyn && kv.Key == k })
	if i < 0 {
		i = len(pairs)
		pairs = append(pairs, siglang.KV{Key: k})
	}
	pairs[i].Val = vs
	o.tree = &siglang.Obj{Pairs: pairs}
}

// evalJSONGetLeaf handles getString/getInt/getBoolean on response trees.
func (ev *evaluator) evalJSONGetLeaf(recv, key aval, kind semmodel.Kind) aval {
	t := siglang.VString
	switch kind {
	case semmodel.KJSONGetInt:
		t = siglang.VInt
	case semmodel.KJSONGetBool:
		t = siglang.VBool
	}
	if recv.obj != nil && recv.obj.kind == oRespNode && recv.obj.node != nil {
		k := constOr(key, "")
		if k == "" {
			recv.obj.node.PutDyn(&siglang.Unknown{Type: t})
			return aval{sig: &siglang.Unknown{Type: t}, fromResp: recv.obj.resp,
				respPath: joinPath(recv.obj.respPath, "*")}
		}
		if recv.obj.node.Get(k) == nil {
			recv.obj.node.Put(k, &siglang.Unknown{Type: t})
		}
		return aval{sig: &siglang.Unknown{Type: t}, fromResp: recv.obj.resp,
			respPath: joinPath(recv.obj.respPath, k)}
	}
	// Access on a JSON object under construction: read back the value.
	if recv.obj != nil && recv.obj.kind == oJSONBuild && recv.obj.pairs != nil {
		if k, ok := key.constString(); ok {
			if v, present := recv.obj.pairs[k]; present {
				return v
			}
		}
	}
	return aval{sig: &siglang.Unknown{Type: t, Origin: constOr(key, "?")}, locs: recv.locs,
		fromResp: recv.fromResp, respPath: joinPath(recv.respPath, constOr(key, "*"))}
}

func (ev *evaluator) evalJSONGetObj(recv, key aval) aval {
	if recv.obj != nil && recv.obj.kind == oRespNode && recv.obj.node != nil {
		k := constOr(key, "*")
		child, okObj := recv.obj.node.Get(k).(*siglang.Obj)
		if !okObj {
			child = &siglang.Obj{}
			recv.obj.node.Put(k, child)
		}
		return respNodeVal(recv.obj.resp, child, joinPath(recv.obj.respPath, k))
	}
	return unknownVal(siglang.VAny, "jsonobj")
}

func (ev *evaluator) evalJSONGetArr(recv, key aval) aval {
	if recv.obj != nil && recv.obj.kind == oRespNode && recv.obj.node != nil {
		k := constOr(key, "*")
		var elemObj *siglang.Obj
		if arr, okArr := recv.obj.node.Get(k).(*siglang.Arr); okArr && len(arr.Elems) > 0 {
			if o, isObj := arr.Elems[0].(*siglang.Obj); isObj {
				elemObj = o
			}
		}
		if elemObj == nil {
			elemObj = &siglang.Obj{}
			recv.obj.node.Put(k, &siglang.Arr{Elems: []siglang.Sig{elemObj}, Open: true})
		}
		return respNodeVal(recv.obj.resp, elemObj, joinPath(recv.obj.respPath, k+"[]"))
	}
	return unknownVal(siglang.VAny, "jsonarr")
}

// typedRespField reads field f of a gson-bound object: the access extends
// the response tree with the field name, typed by the class declaration
// (reflection-based nested JSON support).
func (ev *evaluator) typedRespField(o *aobj, field string) aval {
	t := siglang.VString
	var fieldType string
	if c := ev.prog.Class(o.class); c != nil {
		if f := c.Field(field); f != nil {
			fieldType = f.Type
			t = typeToVType(f.Type)
		}
	}
	path := joinPath(o.respPath, field)
	// Nested app-typed field: a sub-object in the tree.
	if fieldType != "" {
		if fc := ev.prog.Class(fieldType); fc != nil && !fc.Library {
			child, okObj := o.node.Get(field).(*siglang.Obj)
			if !okObj {
				child = &siglang.Obj{}
				o.node.Put(field, child)
			}
			sub := &aobj{kind: oTyped, class: fieldType, respBound: true,
				resp: o.resp, node: child, respPath: path, pairs: map[string]aval{}}
			return aval{obj: sub, fromResp: o.resp, respPath: path}
		}
	}
	if o.node.Get(field) == nil {
		o.node.Put(field, &siglang.Unknown{Type: t})
	}
	return aval{sig: &siglang.Unknown{Type: t}, fromResp: o.resp, respPath: path}
}

// typedToTree serializes an app-typed object to a JSON tree using its class
// declaration, mirroring gson.toJson reflection.
func (ev *evaluator) typedToTree(o *aobj, depth int) *siglang.Obj {
	tree := &siglang.Obj{}
	if depth > 4 {
		return tree
	}
	c := ev.prog.Class(o.class)
	if c == nil {
		for _, k := range o.order {
			tree.Put(k, o.pairs[k].sigOf())
		}
		return tree
	}
	for _, f := range c.Fields {
		if f.Static {
			continue
		}
		if v, ok := o.pairs[f.Name]; ok {
			if v.obj != nil && v.obj.kind == oTyped {
				tree.Put(f.Name, ev.typedToTree(v.obj, depth+1))
				continue
			}
			tree.Put(f.Name, v.sigOf())
			continue
		}
		if fc := ev.prog.Class(f.Type); fc != nil && !fc.Library {
			tree.Put(f.Name, ev.typedToTree(&aobj{kind: oTyped, class: f.Type}, depth+1))
			continue
		}
		tree.Put(f.Name, &siglang.Unknown{Type: typeToVType(f.Type)})
	}
	return tree
}

// dbLoc resolves the heap location of a DB read.
func (ev *evaluator) dbLoc(m *ir.Method, idx int, in *ir.Instr, en env) string {
	table := "*"
	col := "*"
	if len(in.Args) > 1 {
		if s, ok := en[in.Args[1]].constString(); ok {
			table = s
		}
	}
	if len(in.Args) > 2 {
		if s, ok := en[in.Args[2]].constString(); ok {
			col = s
		}
	}
	return "db:" + table + "." + col
}

func findOrAddElem(parent *siglang.Elem, tag string) *siglang.Elem {
	for _, c := range parent.Children {
		if c.Tag == tag {
			return c
		}
	}
	c := &siglang.Elem{Tag: tag}
	parent.Children = append(parent.Children, c)
	return c
}

// leadsToFilter reports whether a call may transitively reach statements in
// the slice filter: an app callee carrying filtered statements, or an async
// registration whose callback does.
func (ev *evaluator) leadsToFilter(m *ir.Method, in *ir.Instr) bool {
	if mm := ev.model.Lookup(in.Sym); mm != nil {
		if mm.CallbackMethod == "" {
			return false
		}
		if mm.CallbackArg >= len(in.Args) {
			return false
		}
		types := ev.types(m)
		r := in.Args[mm.CallbackArg]
		if r < 0 || r >= len(types) || types[r] == "" {
			return false
		}
		target := ev.prog.ResolveMethod(types[r], mm.CallbackMethod)
		return target != nil && ev.reachesFilter(target.Ref(), map[string]bool{})
	}
	callee := ev.resolveCallee(m, in)
	return callee != nil && ev.reachesFilter(callee.Ref(), map[string]bool{})
}

// reachesFilter walks the static call structure of a method checking
// whether it (or a transitive callee) contributes filtered statements.
func (ev *evaluator) reachesFilter(ref string, seen map[string]bool) bool {
	if ev.filteredMethod(ref) {
		return true
	}
	if seen[ref] {
		return false
	}
	seen[ref] = true
	m := ev.prog.Method(ref)
	if m == nil {
		return false
	}
	for i := range m.Instrs {
		in := &m.Instrs[i]
		if in.Op != ir.OpInvoke {
			continue
		}
		if callee := ev.resolveCallee(m, in); callee != nil {
			if ev.reachesFilter(callee.Ref(), seen) {
				return true
			}
		}
	}
	return false
}
