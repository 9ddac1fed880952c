// Report codec: a lossless, deterministic binary encoding of core.Report
// for the persistent result cache. The encoding covers every
// profile-independent field — transactions with full signature trees,
// dependency edges, diagnostics, slice fraction — and deliberately excludes
// Duration and Profile, which describe one machine's run rather than the
// binary, and are always recomputed on the warm path.
//
// Layout mirrors the .apkb container idiom (package dex): a fixed header
//
//	magic "EXRC" | u16 codec version | u32 crc32(payload) | payload
//
// over a varint-encoded payload. Strings are length-prefixed (reports are
// small enough that a shared pool would not pay for itself); maps encode
// with sorted keys so equal reports always produce equal bytes; signature
// trees use one tag byte per node. Decode bounds every count by the
// remaining payload and every recursion by a depth limit, and recovers
// internal panics, so arbitrary bytes can never take the process down —
// they produce an error and a cache miss.
package resultcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"extractocol/internal/budget"
	"extractocol/internal/core"
	"extractocol/internal/ir"
	"extractocol/internal/sigbuild"
	"extractocol/internal/siglang"
	"extractocol/internal/txdep"
)

// codecMagic identifies cached report entries on disk.
var codecMagic = [4]byte{'E', 'X', 'R', 'C'}

// CodecVersion is the cache entry format version; it participates in the
// cache key, so a codec change orphans old entries instead of misreading
// them, and is also checked in the header for entries reached by other
// means.
const CodecVersion uint16 = 1

// Errors returned by DecodeReport.
var (
	ErrBadMagic    = errors.New("resultcache: bad magic (not a cached report)")
	ErrBadVersion  = errors.New("resultcache: unsupported cache format version")
	ErrBadChecksum = errors.New("resultcache: payload checksum mismatch")
)

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

// EncodeReport serializes r into the cache entry format. The encoding is
// deterministic: equal reports (ignoring Duration and Profile) produce
// equal bytes.
func EncodeReport(r *core.Report) ([]byte, error) {
	if r == nil {
		return nil, errors.New("resultcache: nil report")
	}
	e := &encoder{}
	e.str(r.Package)
	e.str(r.AppName)
	e.f64(r.SliceFraction)
	e.uvarint(uint64(r.DPCount))
	e.uvarint(uint64(len(r.Transactions)))
	for _, tx := range r.Transactions {
		e.tx(tx)
	}
	e.uvarint(uint64(len(r.Deps)))
	for _, d := range r.Deps {
		e.varint(int64(d.From))
		e.varint(int64(d.To))
		e.str(d.FromField)
		e.str(d.ToPart)
		e.str(d.Via)
	}
	e.uvarint(uint64(len(r.Diagnostics)))
	for _, d := range r.Diagnostics {
		e.str(d.Phase)
		e.str(d.Kind)
		e.str(d.Site)
		e.str(d.Detail)
	}
	if e.err != nil {
		return nil, e.err
	}

	payload := e.buf.Bytes()
	out := make([]byte, 0, len(payload)+10)
	out = append(out, codecMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, CodecVersion)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...), nil
}

// DecodeReport parses a cache entry produced by EncodeReport. Arbitrary
// input yields an error, never a panic; a report that decodes successfully
// re-encodes to byte-identical output.
func DecodeReport(data []byte) (rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("resultcache: decoder panic on malformed entry: %v", r)
		}
	}()
	if len(data) < 10 {
		return nil, ErrBadMagic
	}
	if !bytes.Equal(data[:4], codecMagic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != CodecVersion {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, v, CodecVersion)
	}
	payload := data[10:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[6:10]) {
		return nil, ErrBadChecksum
	}

	d := &decoder{data: payload, text: string(payload)}
	r := &core.Report{}
	r.Package = d.str()
	r.AppName = d.str()
	r.SliceFraction = d.f64()
	r.DPCount = int(d.uvarint())
	ntx := d.count()
	for i := uint64(0); i < ntx && d.err == nil; i++ {
		r.Transactions = append(r.Transactions, d.tx())
	}
	ndep := d.count()
	for i := uint64(0); i < ndep && d.err == nil; i++ {
		r.Deps = append(r.Deps, txdep.Dep{
			From:      int(d.varint()),
			To:        int(d.varint()),
			FromField: d.str(),
			ToPart:    d.str(),
			Via:       d.str(),
		})
	}
	ndiag := d.count()
	for i := uint64(0); i < ndiag && d.err == nil; i++ {
		r.Diagnostics = append(r.Diagnostics, budget.Diagnostic{
			Phase: d.str(), Kind: d.str(), Site: d.str(), Detail: d.str(),
		})
	}
	if d.err == nil && d.off != len(d.data) {
		d.fail(fmt.Errorf("%d trailing payload bytes", len(d.data)-d.off))
	}
	if d.err != nil {
		return nil, fmt.Errorf("resultcache: corrupt entry: %w", d.err)
	}
	return r, nil
}

// ---- encoder -------------------------------------------------------------

type encoder struct {
	buf bytes.Buffer
	err error
	tmp [binary.MaxVarintLen64]byte
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf.Write(e.tmp[:n])
}

func (e *encoder) varint(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.buf.Write(e.tmp[:n])
}

func (e *encoder) bool(b bool) {
	if b {
		e.uvarint(1)
	} else {
		e.uvarint(0)
	}
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf.WriteString(s)
}

func (e *encoder) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	e.buf.Write(b[:])
}

func (e *encoder) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// strsMap encodes a string → []string map with sorted keys.
func (e *encoder) strsMap(m map[string][]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
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
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.str(m[k])
	}
}

func (e *encoder) tx(t *core.Transaction) {
	if t == nil {
		e.err = errors.New("resultcache: nil transaction")
		return
	}
	e.varint(int64(t.ID))
	e.str(t.DP)
	e.str(t.DPRef)
	e.str(t.Entry.Method)
	e.uvarint(uint64(t.Entry.Kind))
	e.str(t.Entry.Label)
	e.bool(t.Request != nil)
	if t.Request != nil {
		e.reqSig(t.Request)
	}
	e.bool(t.Response != nil)
	if t.Response != nil {
		e.respSig(t.Response)
	}
	e.bool(t.Paired)
	e.bool(t.OneToOne)
	e.bool(t.SharedHandler)
	e.bool(t.FlowConfirmed)
	e.strs(t.Sinks)
	e.strs(t.Sources)
	e.strs(t.Entries)
	e.bool(t.Evidence != nil)
	if t.Evidence != nil {
		e.evidence(t.Evidence)
	}
}

func (e *encoder) evidence(ev *core.Evidence) {
	e.str(ev.Entry)
	e.str(ev.EntryKind)
	e.str(ev.EntryLabel)
	e.str(ev.DP)
	e.str(ev.DPRef)
	e.varint(int64(ev.ReqStmts))
	e.varint(int64(ev.ReqSliced))
	e.varint(int64(ev.ReqMethods))
	e.varint(int64(ev.RespStmts))
	e.varint(int64(ev.RespSliced))
	e.varint(int64(ev.RespMethods))
	e.strs(ev.HeapReads)
	e.strs(ev.HeapWrites)
	e.varint(int64(ev.FlowSeeds))
	e.str(ev.FlowWitness)
	e.varint(int64(ev.SigMethods))
	e.varint(int64(ev.SigPrePass))
}

func (e *encoder) reqSig(r *sigbuild.RequestSig) {
	e.str(r.Method)
	e.sig(r.URI)
	e.kvs(r.Headers)
	e.str(r.BodyKind)
	e.sig(r.Body)
	e.strs(r.URIDeps)
	e.strs(r.BodyDeps)
	e.strsMap(r.FieldDeps)
	e.strsMap(r.HeaderDeps)
}

func (e *encoder) respSig(r *sigbuild.ResponseSig) {
	e.str(r.DPID)
	e.str(r.BodyKind)
	e.bool(r.JSON != nil)
	if r.JSON != nil {
		e.objBody(r.JSON)
	}
	e.elem(r.XML)
	e.strMap(r.WriteOrigins)
	e.strs(r.Sinks)
}

func (e *encoder) kvs(kvs []siglang.KV) {
	e.uvarint(uint64(len(kvs)))
	for _, kv := range kvs {
		e.str(kv.Key)
		e.bool(kv.Dyn)
		e.sig(kv.Val)
	}
}

func (e *encoder) objBody(o *siglang.Obj) { e.kvs(o.Pairs) }

func (e *encoder) sig(s siglang.Sig) {
	switch v := s.(type) {
	case nil:
		e.buf.WriteByte(tagNil)
	case *siglang.Lit:
		e.buf.WriteByte(tagLit)
		e.str(v.Val)
		e.bool(v.Num)
	case *siglang.Unknown:
		e.buf.WriteByte(tagUnknown)
		e.uvarint(uint64(v.Type))
		e.str(v.Origin)
	case *siglang.Concat:
		e.buf.WriteByte(tagConcat)
		e.uvarint(uint64(len(v.Parts)))
		for _, p := range v.Parts {
			e.sig(p)
		}
	case *siglang.Rep:
		e.buf.WriteByte(tagRep)
		e.sig(v.Body)
	case *siglang.Or:
		e.buf.WriteByte(tagOr)
		e.uvarint(uint64(len(v.Alts)))
		for _, a := range v.Alts {
			e.sig(a)
		}
	case *siglang.Obj:
		e.buf.WriteByte(tagObj)
		e.objBody(v)
	case *siglang.Arr:
		e.buf.WriteByte(tagArr)
		e.uvarint(uint64(len(v.Elems)))
		for _, el := range v.Elems {
			e.sig(el)
		}
		e.bool(v.Open)
	case *siglang.JSON:
		e.buf.WriteByte(tagJSON)
		e.sig(v.Root)
	case *siglang.XML:
		e.buf.WriteByte(tagXML)
		e.elem(v.Root)
	default:
		e.err = fmt.Errorf("resultcache: unencodable signature node %T", s)
	}
}

func (e *encoder) elem(el *siglang.Elem) {
	e.bool(el != nil)
	if el == nil {
		return
	}
	e.str(el.Tag)
	e.kvs(el.Attrs)
	e.uvarint(uint64(len(el.Children)))
	for _, c := range el.Children {
		e.elem(c)
	}
	e.sig(el.Text)
}

// ---- decoder -------------------------------------------------------------

type decoder struct {
	data  []byte
	text  string // data as one string; every decoded string is a substring
	off   int
	depth int
	err   error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(io.ErrUnexpectedEOF)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail(io.ErrUnexpectedEOF)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bool() bool { return d.uvarint() != 0 }

// count reads an element count and rejects values that cannot fit in the
// remaining payload (every element costs at least one byte), bounding both
// preallocation and loop trips against hostile entries.
func (d *decoder) count() uint64 {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail(fmt.Errorf("count %d exceeds %d remaining payload bytes", n, len(d.data)-d.off))
		return 0
	}
	return n
}

func (d *decoder) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := d.text[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.fail(io.ErrUnexpectedEOF)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) strs() []string {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.str())
	}
	return out
}

func (d *decoder) strsMap() map[string][]string {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make(map[string][]string, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.str()
		out[k] = d.strs()
	}
	return out
}

func (d *decoder) strMap() map[string]string {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make(map[string]string, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.str()
		out[k] = d.str()
	}
	return out
}

func (d *decoder) tx() *core.Transaction {
	t := &core.Transaction{}
	t.ID = int(d.varint())
	t.DP = d.str()
	t.DPRef = d.str()
	t.Entry.Method = d.str()
	kind := d.uvarint()
	if kind > math.MaxUint8 {
		d.fail(fmt.Errorf("entry-point kind %d out of range", kind))
		return t
	}
	t.Entry.Kind = ir.EventKind(kind)
	t.Entry.Label = d.str()
	if d.bool() {
		t.Request = d.reqSig()
	}
	if d.bool() {
		t.Response = d.respSig()
	}
	t.Paired = d.bool()
	t.OneToOne = d.bool()
	t.SharedHandler = d.bool()
	t.FlowConfirmed = d.bool()
	t.Sinks = d.strs()
	t.Sources = d.strs()
	t.Entries = d.strs()
	if d.bool() {
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
		ReqStmts:    int(d.varint()),
		ReqSliced:   int(d.varint()),
		ReqMethods:  int(d.varint()),
		RespStmts:   int(d.varint()),
		RespSliced:  int(d.varint()),
		RespMethods: int(d.varint()),
		HeapReads:   d.strs(),
		HeapWrites:  d.strs(),
		FlowSeeds:   int(d.varint()),
		FlowWitness: d.str(),
		SigMethods:  int(d.varint()),
		SigPrePass:  int(d.varint()),
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
	if d.bool() {
		r.JSON = d.objBody()
	}
	r.XML = d.elem()
	r.WriteOrigins = d.strMap()
	r.Sinks = d.strs()
	return r
}

func (d *decoder) kvs() []siglang.KV {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]siglang.KV, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, siglang.KV{Key: d.str(), Dyn: d.bool(), Val: d.sig()})
	}
	return out
}

func (d *decoder) objBody() *siglang.Obj { return &siglang.Obj{Pairs: d.kvs()} }

func (d *decoder) sig() siglang.Sig {
	if d.err != nil {
		return nil
	}
	d.depth++
	defer func() { d.depth-- }()
	if d.depth > maxSigDepth {
		d.fail(fmt.Errorf("signature nested deeper than %d levels", maxSigDepth))
		return nil
	}
	if d.off >= len(d.data) {
		d.fail(io.ErrUnexpectedEOF)
		return nil
	}
	tag := d.data[d.off]
	d.off++
	switch tag {
	case tagNil:
		return nil
	case tagLit:
		return &siglang.Lit{Val: d.str(), Num: d.bool()}
	case tagUnknown:
		typ := d.uvarint()
		if typ > math.MaxUint8 {
			d.fail(fmt.Errorf("unknown-term type %d out of range", typ))
			return nil
		}
		return &siglang.Unknown{Type: siglang.VType(typ), Origin: d.str()}
	case tagConcat:
		n := d.count()
		c := &siglang.Concat{}
		for i := uint64(0); i < n && d.err == nil; i++ {
			c.Parts = append(c.Parts, d.sig())
		}
		return c
	case tagRep:
		return &siglang.Rep{Body: d.sig()}
	case tagOr:
		n := d.count()
		o := &siglang.Or{}
		for i := uint64(0); i < n && d.err == nil; i++ {
			o.Alts = append(o.Alts, d.sig())
		}
		return o
	case tagObj:
		return d.objBody()
	case tagArr:
		n := d.count()
		a := &siglang.Arr{}
		for i := uint64(0); i < n && d.err == nil; i++ {
			a.Elems = append(a.Elems, d.sig())
		}
		a.Open = d.bool()
		return a
	case tagJSON:
		return &siglang.JSON{Root: d.sig()}
	case tagXML:
		return &siglang.XML{Root: d.elem()}
	}
	d.fail(fmt.Errorf("unknown signature tag %d at offset %d", tag, d.off-1))
	return nil
}

func (d *decoder) elem() *siglang.Elem {
	if d.err != nil {
		return nil
	}
	d.depth++
	defer func() { d.depth-- }()
	if d.depth > maxSigDepth {
		d.fail(fmt.Errorf("signature nested deeper than %d levels", maxSigDepth))
		return nil
	}
	if !d.bool() {
		return nil
	}
	el := &siglang.Elem{Tag: d.str(), Attrs: d.kvs()}
	n := d.count()
	for i := uint64(0); i < n && d.err == nil; i++ {
		el.Children = append(el.Children, d.elem())
	}
	el.Text = d.sig()
	return el
}
