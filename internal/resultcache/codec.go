// Report codec: a lossless, deterministic binary encoding of core.Report
// for the persistent result cache. The encoding covers every
// profile-independent field — transactions with full signature trees,
// dependency edges, diagnostics, slice fraction — and deliberately excludes
// Duration and Profile, which describe one machine's run rather than the
// binary, and are always recomputed on the warm path.
//
// An entry is sealed and encoded in the format of package wire under the
// magic "EXRC". Strings are length-prefixed, not pooled: reports are small
// enough that a shared pool would not pay for itself. Maps encode with
// strictly increasing keys, so equal reports always produce equal bytes and
// the decoder can reject any other order; signature trees use one tag byte
// per node. Decode bounds every count by the remaining payload at its
// element's minimum encoded size and every recursion by a depth limit, and
// recovers internal panics, so arbitrary bytes can never take the process
// down — they produce an error and a cache miss.
package resultcache

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/ir"
	"extractocol/internal/sigbuild"
	"extractocol/internal/siglang"
	"extractocol/internal/txdep"
	"extractocol/internal/wire"
)

// codecMagic identifies cached report entries on disk.
var codecMagic = [4]byte{'E', 'X', 'R', 'C'}

// CodecVersion is the cache entry format version; it participates in the
// cache key, so a codec change orphans old entries instead of misreading
// them, and is also checked in the header for entries reached by other
// means.
const CodecVersion uint16 = 1

// maxSigDepth bounds signature-tree recursion during decode, mirroring
// siglang's parser limit: hostile nesting fails the entry instead of
// overflowing the stack.
const maxSigDepth = 200

// Signature-node tags.
const (
	tagNil byte = iota
	tagLit
	tagUnknown
	tagConcat
	tagRep
	tagOr
	tagObj
	tagArr
	tagJSON
	tagXML
)

// Minimum encoded sizes, in bytes, of the elements a count announces: one
// byte per varint, bool, string length or tag they hold.
const (
	minTx       = 16 // id, five strings, request and response bools, four flags, three lists, evidence bool
	minDep      = 5  // from, to, three strings
	minDiag     = 4  // phase, kind, site, detail
	minMapEntry = 2  // key, value (a string or a list count)
	minKV       = 3  // key, dyn, value tag
	minString   = 1  // length
	minNode     = 1  // tag
	minChild    = 1  // presence bool
)

// EncodeReport serializes r into the cache entry format. The encoding is
// deterministic: equal reports (ignoring Duration and Profile) produce
// equal bytes.
func EncodeReport(r *core.Report) ([]byte, error) {
	if r == nil {
		return nil, errors.New("resultcache: nil report")
	}
	e := &encoder{}
	e.String(r.Package)
	e.String(r.AppName)
	e.Float64(r.SliceFraction)
	e.Uvarint(uint64(r.DPCount))
	e.Uvarint(uint64(len(r.Transactions)))
	for _, tx := range r.Transactions {
		e.tx(tx)
	}
	e.Uvarint(uint64(len(r.Deps)))
	for _, d := range r.Deps {
		e.Varint(int64(d.From))
		e.Varint(int64(d.To))
		e.String(d.FromField)
		e.String(d.ToPart)
		e.String(d.Via)
	}
	e.Uvarint(uint64(len(r.Diagnostics)))
	for _, d := range r.Diagnostics {
		e.String(d.Phase)
		e.String(d.Kind)
		e.String(d.Site)
		e.String(d.Detail)
	}
	if e.err != nil {
		return nil, e.err
	}
	return wire.Seal(codecMagic, CodecVersion, e.Bytes()), nil
}

// DecodeReport parses a cache entry produced by EncodeReport. Arbitrary
// input yields an error, never a panic: a decoder panic, which would mean
// hostile bytes found a hole in its checks, is recovered and returned as
// an error. A report that decodes successfully re-encodes to
// byte-identical output.
func DecodeReport(data []byte) (rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("resultcache: decoder panic on malformed entry: %v", r)
		}
	}()
	return decodeReport(data)
}

// decodeReport is DecodeReport without the recover, so that
// FuzzResultCacheCodec fails on a decoder panic instead of taking its
// error for a clean rejection.
func decodeReport(data []byte) (*core.Report, error) {
	payload, err := wire.Unseal(data, codecMagic, CodecVersion)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}

	d := &decoder{Reader: wire.NewReader(payload), text: string(payload)}
	r := &core.Report{}
	r.Package = d.str()
	r.AppName = d.str()
	r.SliceFraction = d.Float64()
	r.DPCount = int(d.Uvarint())
	ntx := d.Count(minTx)
	for i := uint64(0); i < ntx && d.Err() == nil; i++ {
		r.Transactions = append(r.Transactions, d.tx())
	}
	ndep := d.Count(minDep)
	for i := uint64(0); i < ndep && d.Err() == nil; i++ {
		r.Deps = append(r.Deps, txdep.Dep{
			From:      int(d.Varint()),
			To:        int(d.Varint()),
			FromField: d.str(),
			ToPart:    d.str(),
			Via:       d.str(),
		})
	}
	ndiag := d.Count(minDiag)
	for i := uint64(0); i < ndiag && d.Err() == nil; i++ {
		r.Diagnostics = append(r.Diagnostics, budget.Diagnostic{
			Phase: d.str(), Kind: d.str(), Site: d.str(), Detail: d.str(),
		})
	}
	if d.Err() == nil && d.Len() != 0 {
		d.Fail(fmt.Errorf("%d trailing payload bytes", d.Len()))
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("resultcache: corrupt entry: %w", err)
	}
	return r, nil
}

// ---- encoder -------------------------------------------------------------

type encoder struct {
	wire.Writer
	err error
}

func (e *encoder) strs(ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// strsMap encodes a string → []string map with sorted keys.
func (e *encoder) strsMap(m map[string][]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.strs(m[k])
	}
}

// strMap encodes a string → string map with sorted keys.
func (e *encoder) strMap(m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.String(m[k])
	}
}

func (e *encoder) tx(t *core.Transaction) {
	if t == nil {
		e.err = errors.New("resultcache: nil transaction")
		return
	}
	e.Varint(int64(t.ID))
	e.String(t.DP)
	e.String(t.DPRef)
	e.String(t.Entry.Method)
	e.Uvarint(uint64(t.Entry.Kind))
	e.String(t.Entry.Label)
	e.Bool(t.Request != nil)
	if t.Request != nil {
		e.reqSig(t.Request)
	}
	e.Bool(t.Response != nil)
	if t.Response != nil {
		e.respSig(t.Response)
	}
	e.Bool(t.Paired)
	e.Bool(t.OneToOne)
	e.Bool(t.SharedHandler)
	e.Bool(t.FlowConfirmed)
	e.strs(t.Sinks)
	e.strs(t.Sources)
	e.strs(t.Entries)
	e.Bool(t.Evidence != nil)
	if t.Evidence != nil {
		e.evidence(t.Evidence)
	}
}

func (e *encoder) evidence(ev *core.Evidence) {
	e.String(ev.Entry)
	e.String(ev.EntryKind)
	e.String(ev.EntryLabel)
	e.String(ev.DP)
	e.String(ev.DPRef)
	e.Varint(int64(ev.ReqStmts))
	e.Varint(int64(ev.ReqSliced))
	e.Varint(int64(ev.ReqMethods))
	e.Varint(int64(ev.RespStmts))
	e.Varint(int64(ev.RespSliced))
	e.Varint(int64(ev.RespMethods))
	e.strs(ev.HeapReads)
	e.strs(ev.HeapWrites)
	e.Varint(int64(ev.FlowSeeds))
	e.String(ev.FlowWitness)
	e.Varint(int64(ev.SigMethods))
	e.Varint(int64(ev.SigPrePass))
}

func (e *encoder) reqSig(r *sigbuild.RequestSig) {
	e.String(r.Method)
	e.sig(r.URI)
	e.kvs(r.Headers)
	e.String(r.BodyKind)
	e.sig(r.Body)
	e.strs(r.URIDeps)
	e.strs(r.BodyDeps)
	e.strsMap(r.FieldDeps)
	e.strsMap(r.HeaderDeps)
}

func (e *encoder) respSig(r *sigbuild.ResponseSig) {
	e.String(r.DPID)
	e.String(r.BodyKind)
	e.Bool(r.JSON != nil)
	if r.JSON != nil {
		e.objBody(r.JSON)
	}
	e.elem(r.XML)
	e.strMap(r.WriteOrigins)
	e.strs(r.Sinks)
}

func (e *encoder) kvs(kvs []siglang.KV) {
	e.Uvarint(uint64(len(kvs)))
	for _, kv := range kvs {
		e.String(kv.Key)
		e.Bool(kv.Dyn)
		e.sig(kv.Val)
	}
}

func (e *encoder) objBody(o *siglang.Obj) { e.kvs(o.Pairs) }

func (e *encoder) sig(s siglang.Sig) {
	switch v := s.(type) {
	case nil:
		e.Byte(tagNil)
	case *siglang.Lit:
		e.Byte(tagLit)
		e.String(v.Val)
		e.Bool(v.Num)
	case *siglang.Unknown:
		e.Byte(tagUnknown)
		e.Uvarint(uint64(v.Type))
		e.String(v.Origin)
	case *siglang.Concat:
		e.Byte(tagConcat)
		e.Uvarint(uint64(len(v.Parts)))
		for _, p := range v.Parts {
			e.sig(p)
		}
	case *siglang.Rep:
		e.Byte(tagRep)
		e.sig(v.Body)
	case *siglang.Or:
		e.Byte(tagOr)
		e.Uvarint(uint64(len(v.Alts)))
		for _, a := range v.Alts {
			e.sig(a)
		}
	case *siglang.Obj:
		e.Byte(tagObj)
		e.objBody(v)
	case *siglang.Arr:
		e.Byte(tagArr)
		e.Uvarint(uint64(len(v.Elems)))
		for _, el := range v.Elems {
			e.sig(el)
		}
		e.Bool(v.Open)
	case *siglang.JSON:
		e.Byte(tagJSON)
		e.sig(v.Root)
	case *siglang.XML:
		e.Byte(tagXML)
		e.elem(v.Root)
	default:
		e.err = fmt.Errorf("resultcache: unencodable signature node %T", s)
	}
}

func (e *encoder) elem(el *siglang.Elem) {
	e.Bool(el != nil)
	if el == nil {
		return
	}
	e.String(el.Tag)
	e.kvs(el.Attrs)
	e.Uvarint(uint64(len(el.Children)))
	for _, c := range el.Children {
		e.elem(c)
	}
	e.sig(el.Text)
}

// ---- decoder -------------------------------------------------------------

type decoder struct {
	wire.Reader
	text  string // the payload as one string; every decoded string is a substring
	depth int
}

func (d *decoder) str() string {
	start, end := d.Span()
	return d.text[start:end]
}

func (d *decoder) strs() []string {
	n := d.Count(minString)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		out = append(out, d.str())
	}
	return out
}

// key reads the next key of a sorted map. Keys must strictly increase, as
// the encoder writes them: any other order, or a repeated key, would
// decode to a map that re-encodes to other bytes.
func (d *decoder) key(i uint64, prev string) string {
	k := d.str()
	if i > 0 && k <= prev && d.Err() == nil {
		d.Fail(fmt.Errorf("map key %q after %q", k, prev))
	}
	return k
}

func (d *decoder) strsMap() map[string][]string {
	n := d.Count(minMapEntry)
	if n == 0 {
		return nil
	}
	out := make(map[string][]string, n)
	k := ""
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		k = d.key(i, k)
		out[k] = d.strs()
	}
	return out
}

func (d *decoder) strMap() map[string]string {
	n := d.Count(minMapEntry)
	if n == 0 {
		return nil
	}
	out := make(map[string]string, n)
	k := ""
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		k = d.key(i, k)
		out[k] = d.str()
	}
	return out
}

func (d *decoder) tx() *core.Transaction {
	t := &core.Transaction{}
	t.ID = int(d.Varint())
	t.DP = d.str()
	t.DPRef = d.str()
	t.Entry.Method = d.str()
	kind := d.Uvarint()
	if kind > math.MaxUint8 {
		d.Fail(fmt.Errorf("entry-point kind %d out of range", kind))
		return t
	}
	t.Entry.Kind = ir.EventKind(kind)
	t.Entry.Label = d.str()
	if d.Bool() {
		t.Request = d.reqSig()
	}
	if d.Bool() {
		t.Response = d.respSig()
	}
	t.Paired = d.Bool()
	t.OneToOne = d.Bool()
	t.SharedHandler = d.Bool()
	t.FlowConfirmed = d.Bool()
	t.Sinks = d.strs()
	t.Sources = d.strs()
	t.Entries = d.strs()
	if d.Bool() {
		t.Evidence = d.evidence()
	}
	return t
}

func (d *decoder) evidence() *core.Evidence {
	return &core.Evidence{
		Entry:       d.str(),
		EntryKind:   d.str(),
		EntryLabel:  d.str(),
		DP:          d.str(),
		DPRef:       d.str(),
		ReqStmts:    int(d.Varint()),
		ReqSliced:   int(d.Varint()),
		ReqMethods:  int(d.Varint()),
		RespStmts:   int(d.Varint()),
		RespSliced:  int(d.Varint()),
		RespMethods: int(d.Varint()),
		HeapReads:   d.strs(),
		HeapWrites:  d.strs(),
		FlowSeeds:   int(d.Varint()),
		FlowWitness: d.str(),
		SigMethods:  int(d.Varint()),
		SigPrePass:  int(d.Varint()),
	}
}

func (d *decoder) reqSig() *sigbuild.RequestSig {
	return &sigbuild.RequestSig{
		Method:     d.str(),
		URI:        d.sig(),
		Headers:    d.kvs(),
		BodyKind:   d.str(),
		Body:       d.sig(),
		URIDeps:    d.strs(),
		BodyDeps:   d.strs(),
		FieldDeps:  d.strsMap(),
		HeaderDeps: d.strsMap(),
	}
}

func (d *decoder) respSig() *sigbuild.ResponseSig {
	r := &sigbuild.ResponseSig{DPID: d.str(), BodyKind: d.str()}
	if d.Bool() {
		r.JSON = d.objBody()
	}
	r.XML = d.elem()
	r.WriteOrigins = d.strMap()
	r.Sinks = d.strs()
	return r
}

func (d *decoder) kvs() []siglang.KV {
	n := d.Count(minKV)
	if n == 0 {
		return nil
	}
	out := make([]siglang.KV, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		out = append(out, siglang.KV{Key: d.str(), Dyn: d.Bool(), Val: d.sig()})
	}
	return out
}

func (d *decoder) objBody() *siglang.Obj { return &siglang.Obj{Pairs: d.kvs()} }

func (d *decoder) sig() siglang.Sig {
	if d.Err() != nil {
		return nil
	}
	d.depth++
	defer func() { d.depth-- }()
	if d.depth > maxSigDepth {
		d.Fail(fmt.Errorf("signature nested deeper than %d levels", maxSigDepth))
		return nil
	}
	tag := d.Byte()
	switch tag {
	case tagNil:
		return nil
	case tagLit:
		return &siglang.Lit{Val: d.str(), Num: d.Bool()}
	case tagUnknown:
		typ := d.Uvarint()
		if typ > math.MaxUint8 {
			d.Fail(fmt.Errorf("unknown-term type %d out of range", typ))
			return nil
		}
		return &siglang.Unknown{Type: siglang.VType(typ), Origin: d.str()}
	case tagConcat:
		n := d.Count(minNode)
		c := &siglang.Concat{}
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			c.Parts = append(c.Parts, d.sig())
		}
		return c
	case tagRep:
		return &siglang.Rep{Body: d.sig()}
	case tagOr:
		n := d.Count(minNode)
		o := &siglang.Or{}
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			o.Alts = append(o.Alts, d.sig())
		}
		return o
	case tagObj:
		return d.objBody()
	case tagArr:
		n := d.Count(minNode)
		a := &siglang.Arr{}
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			a.Elems = append(a.Elems, d.sig())
		}
		a.Open = d.Bool()
		return a
	case tagJSON:
		return &siglang.JSON{Root: d.sig()}
	case tagXML:
		return &siglang.XML{Root: d.elem()}
	}
	d.Fail(fmt.Errorf("unknown signature tag %d at offset %d", tag, d.Offset()-1))
	return nil
}

func (d *decoder) elem() *siglang.Elem {
	if d.Err() != nil {
		return nil
	}
	d.depth++
	defer func() { d.depth-- }()
	if d.depth > maxSigDepth {
		d.Fail(fmt.Errorf("signature nested deeper than %d levels", maxSigDepth))
		return nil
	}
	if !d.Bool() {
		return nil
	}
	el := &siglang.Elem{Tag: d.str(), Attrs: d.kvs()}
	n := d.Count(minChild)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		el.Children = append(el.Children, d.elem())
	}
	el.Text = d.sig()
	return el
}
