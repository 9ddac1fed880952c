// Package dex serializes ir.Program values into the .apkb binary container
// and parses them back. The container is the analog of an Android APK/DEX
// file: it is the *only* input the analyzer consumes, keeping Extractocol's
// "application binary as sole input" property. The format uses a shared
// string pool (like DEX), little-endian fixed-width section headers, and a
// CRC32 checksum over the payload.
//
// Layout:
//
//	magic "APKB" | u16 version | u32 crc32(payload) | payload
//
// The payload is: string pool, manifest, resources, classes. All strings
// are pool indices; all integers are varint-encoded except the header.
package dex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"extractocol/internal/budget"
	"extractocol/internal/ir"
)

// Magic identifies .apkb containers.
var Magic = [4]byte{'A', 'P', 'K', 'B'}

// Version is the current container format version.
const Version uint16 = 2

// Errors returned by Decode.
var (
	ErrBadMagic    = errors.New("dex: bad magic (not an .apkb container)")
	ErrBadVersion  = errors.New("dex: unsupported container version")
	ErrBadChecksum = errors.New("dex: payload checksum mismatch")
)

// Encode serializes p into the .apkb container format.
func Encode(p *ir.Program) ([]byte, error) {
	var pool stringPool
	var body bytes.Buffer
	w := &writer{w: &body, pool: &pool}

	// Manifest.
	w.str(p.Manifest.Package)
	w.str(p.Manifest.AppName)
	w.bool(p.Manifest.Obfuscated)
	w.uvarint(uint64(len(p.Manifest.EntryPoints)))
	for _, ep := range p.Manifest.EntryPoints {
		w.str(ep.Method)
		w.uvarint(uint64(ep.Kind))
		w.str(ep.Label)
	}

	// Resources, sorted for determinism.
	keys := make([]string, 0, len(p.Resources))
	for k := range p.Resources {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(p.Resources[k])
	}

	// Classes.
	classes := p.Classes()
	w.uvarint(uint64(len(classes)))
	for _, c := range classes {
		encodeClass(w, c)
	}
	if w.err != nil {
		return nil, w.err
	}

	// Assemble: header, pool, body.
	var out bytes.Buffer
	out.Write(Magic[:])
	var verBuf [2]byte
	binary.LittleEndian.PutUint16(verBuf[:], Version)
	out.Write(verBuf[:])

	var payload bytes.Buffer
	pw := &writer{w: &payload}
	pw.uvarint(uint64(len(pool.strs)))
	for _, s := range pool.strs {
		pw.rawstr(s)
	}
	if pw.err != nil {
		return nil, pw.err
	}
	payload.Write(body.Bytes())

	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload.Bytes()))
	out.Write(crcBuf[:])
	out.Write(payload.Bytes())
	return out.Bytes(), nil
}

func encodeClass(w *writer, c *ir.Class) {
	w.str(c.Name)
	w.str(c.Super)
	w.bool(c.Library)
	w.uvarint(uint64(len(c.Interfaces)))
	for _, i := range c.Interfaces {
		w.str(i)
	}
	w.uvarint(uint64(len(c.Fields)))
	for _, f := range c.Fields {
		w.str(f.Name)
		w.str(f.Type)
		w.bool(f.Static)
	}
	w.uvarint(uint64(len(c.Methods)))
	for _, m := range c.Methods {
		encodeMethod(w, m)
	}
}

func encodeMethod(w *writer, m *ir.Method) {
	w.str(m.Name)
	w.str(m.Return)
	w.bool(m.Static)
	w.uvarint(uint64(len(m.Params)))
	for _, p := range m.Params {
		w.str(p)
	}
	w.uvarint(uint64(m.Registers))
	w.uvarint(uint64(len(m.Instrs)))
	for i := range m.Instrs {
		encodeInstr(w, &m.Instrs[i])
	}
}

func encodeInstr(w *writer, in *ir.Instr) {
	w.uvarint(uint64(in.Op))
	w.reg(in.Dst)
	w.reg(in.A)
	w.reg(in.B)
	w.uvarint(uint64(len(in.Args)))
	for _, a := range in.Args {
		w.reg(a)
	}
	w.str(in.Sym)
	w.str(in.Str)
	w.varint(in.Int)
	w.varint(int64(in.Target))
	w.uvarint(uint64(in.Kind))
}

// Decode parses an .apkb container produced by Encode. The returned program
// is validated structurally. A panic inside the decoder — which would mean
// hostile bytes found a hole in the bounds checks — is recovered and
// returned as an error, so one malformed container can never take down a
// corpus run.
func Decode(data []byte) (*ir.Program, error) {
	return DecodeFaults(data, nil)
}

// DecodeFaults is Decode with a fault-injection hook for the robustness
// test layer: inj, when non-nil, is probed at the decode phase and may
// force a panic that must surface as an error, exercising the recovery
// path with real hostile-input control flow.
func DecodeFaults(data []byte, inj *budget.FaultInjector) (p *ir.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("dex: decoder panic on malformed input: %v", r)
		}
	}()
	inj.MaybePanic(budget.PhaseDecode, "container")
	return decode(data)
}

func decode(data []byte) (*ir.Program, error) {
	if len(data) < 10 {
		return nil, ErrBadMagic
	}
	if !bytes.Equal(data[:4], Magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, v, Version)
	}
	wantCRC := binary.LittleEndian.Uint32(data[6:10])
	payload := data[10:]
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, ErrBadChecksum
	}

	r := &reader{data: payload}
	r.readPool()

	p := ir.NewProgram("")
	p.Manifest.Package = r.str()
	p.Manifest.AppName = r.str()
	p.Manifest.Obfuscated = r.bool()
	if n := r.count(minEntryPoint); n > 0 {
		p.Manifest.EntryPoints = make([]ir.EntryPoint, n)
	}
	for i := range p.Manifest.EntryPoints {
		ep := &p.Manifest.EntryPoints[i]
		ep.Method, ep.Kind, ep.Label = r.str(), ir.EventKind(r.uvarint()), r.str()
		if r.err != nil {
			break
		}
	}
	res := r.count(minResource)
	for i := uint64(0); i < res && r.err == nil; i++ {
		k := r.str()
		p.Resources[k] = r.str()
	}
	classes := make([]ir.Class, r.count(minClass))
	for i := range classes {
		c := &classes[i]
		r.class(c)
		if r.err != nil {
			break
		}
		p.AddClass(c)
	}
	if r.err != nil {
		return nil, fmt.Errorf("dex: truncated container: %w", r.err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dex: invalid program: %w", err)
	}
	return p, nil
}

// Minimum encoded sizes, in bytes, of the elements a count announces: one
// byte per varint or pool index they hold. reader.count bounds each count
// by the bytes left, so a hostile count fails before anything is sized
// from it.
const (
	minPoolEntry  = 1  // length
	minEntryPoint = 3  // method, kind, label
	minResource   = 2  // key, value
	minClass      = 6  // name, super, library, three counts
	minName       = 1  // an interface or parameter type, one pool index
	minField      = 3  // name, type, static
	minMethod     = 6  // name, return, static, params, registers, instrs
	minInstr      = 10 // op, dst, a, b, arg count, sym, str, int, target, kind
	minArg        = 1  // one register
)

// A decoded program is built from a few shared allocations: one
// []ir.Class per program, one []ir.Field and one []ir.Method per class (the
// pointer slices point into them), one exact []ir.Instr per method, and the
// Interfaces, Params and Args of many classes, methods and instructions
// carved from the reader's backing arrays of these sizes.
const (
	strsChunk = 64  // strings per Interfaces and Params backing array
	regsChunk = 256 // registers per Args backing array
)

// carve returns the next n elements of the backing array *buf as a slice
// whose capacity ends at its length, so an append to it never writes
// another slice's elements. When fewer than n are left, *buf is refilled
// with max(n, chunk) fresh elements. n == 0 gives nil.
func carve[T any](buf *[]T, n uint64, chunk int) []T {
	if n == 0 {
		return nil
	}
	if uint64(len(*buf)) < n {
		*buf = make([]T, max(int(n), chunk))
	}
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

func (r *reader) class(c *ir.Class) {
	c.Name, c.Super, c.Library = r.str(), r.str(), r.bool()
	c.Interfaces = r.names()
	if n := r.count(minField); n > 0 {
		fields := make([]ir.Field, n)
		c.Fields = make([]*ir.Field, n)
		for i := range fields {
			f := &fields[i]
			f.Name, f.Type, f.Static = r.str(), r.str(), r.bool()
			c.Fields[i] = f
			if r.err != nil {
				return
			}
		}
	}
	if n := r.count(minMethod); n > 0 {
		methods := make([]ir.Method, n)
		c.Methods = make([]*ir.Method, n)
		for i := range methods {
			m := &methods[i]
			m.Class = c // Program.AddClass builds the ref
			r.method(m)
			c.Methods[i] = m
			if r.err != nil {
				return
			}
		}
	}
}

func (r *reader) method(m *ir.Method) {
	m.Name, m.Return, m.Static = r.str(), r.str(), r.bool()
	m.Params = r.names()
	m.Registers = int(r.uvarint())
	m.Instrs = make([]ir.Instr, r.count(minInstr))
	for i := range m.Instrs {
		r.instr(&m.Instrs[i])
		if r.err != nil {
			return
		}
	}
}

func (r *reader) instr(in *ir.Instr) {
	in.Op = ir.Op(r.uvarint())
	in.Dst = r.reg()
	in.A = r.reg()
	in.B = r.reg()
	in.Args = carve(&r.regs, r.count(minArg), regsChunk)
	for i := 0; i < len(in.Args) && r.err == nil; i++ {
		in.Args[i] = r.reg()
	}
	in.Sym = r.str()
	in.Str = r.str()
	in.Int = r.varint()
	in.Target = int(r.varint())
	in.Kind = ir.InvokeKind(r.uvarint())
}

// names reads a counted list of pool strings: a class's interfaces or a
// method's parameter types.
func (r *reader) names() []string {
	out := carve(&r.strs, r.count(minName), strsChunk)
	for i := 0; i < len(out) && r.err == nil; i++ {
		out[i] = r.str()
	}
	return out
}

// WriteFile encodes p and writes it to path.
func WriteFile(path string, p *ir.Program) error {
	data, err := Encode(p)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile reads and decodes the container at path.
func ReadFile(path string) (*ir.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// ---- low-level encoding helpers ----

type stringPool struct {
	strs  []string
	index map[string]uint64
}

func (p *stringPool) id(s string) uint64 {
	if p.index == nil {
		p.index = map[string]uint64{}
	}
	if id, ok := p.index[s]; ok {
		return id
	}
	id := uint64(len(p.strs))
	p.strs = append(p.strs, s)
	p.index[s] = id
	return id
}

type writer struct {
	w    io.Writer
	pool *stringPool
	err  error
	buf  [binary.MaxVarintLen64]byte
}

func (w *writer) write(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

func (w *writer) uvarint(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.write(w.buf[:n])
}

func (w *writer) varint(v int64) {
	n := binary.PutVarint(w.buf[:], v)
	w.write(w.buf[:n])
}

func (w *writer) bool(b bool) {
	if b {
		w.uvarint(1)
	} else {
		w.uvarint(0)
	}
}

// reg encodes a register index, mapping ir.NoReg to 0.
func (w *writer) reg(r int) {
	w.varint(int64(r))
}

// str interns s in the pool and writes its index.
func (w *writer) str(s string) { w.uvarint(w.pool.id(s)) }

// rawstr writes a length-prefixed string (pool entries only).
func (w *writer) rawstr(s string) {
	w.uvarint(uint64(len(s)))
	w.write([]byte(s))
}

type reader struct {
	data []byte
	off  int
	pool []string
	err  error

	strs []string // backing array for Interfaces and Params, see carve
	regs []int    // backing array for Args
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// uvarint and varint decode a one-byte value inline: nearly every register,
// opcode, count and pool index in a container is one.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		r.off++
		return uint64(r.data[r.off-1])
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		b := r.data[r.off]
		r.off++
		if b&1 != 0 {
			return ^int64(b >> 1)
		}
		return int64(b >> 1)
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) bool() bool { return r.uvarint() != 0 }

// count reads an element count and rejects values that cannot possibly fit
// in the remaining payload: every element encodes in at least size bytes,
// so a count of more elements than the bytes left can hold is corrupt.
// This bounds both preallocation sizes and loop trip counts against
// hostile containers.
func (r *reader) count(size int) uint64 {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if left := len(r.data) - r.off; n > uint64(left/size) {
		r.fail(fmt.Errorf("count %d of elements of at least %d bytes exceeds %d remaining payload bytes", n, size, left))
		return 0
	}
	return n
}

func (r *reader) reg() int { return int(r.varint()) }

func (r *reader) str() string {
	id := r.uvarint()
	if r.err != nil {
		return ""
	}
	if id >= uint64(len(r.pool)) {
		r.fail(fmt.Errorf("string pool index %d out of range", id))
		return ""
	}
	return r.pool[id]
}

// readPool reads the string pool into one string, of which every entry is
// a substring. The first walk finds where the pool ends, the second slices
// the entries out of the copy.
func (r *reader) readPool() {
	n := r.count(minPoolEntry)
	start := r.off
	for i := uint64(0); i < n && r.err == nil; i++ {
		if l := r.uvarint(); l > uint64(len(r.data)-r.off) {
			r.fail(io.ErrUnexpectedEOF)
		} else {
			r.off += int(l)
		}
	}
	if r.err != nil {
		return
	}
	raw := r.data[start:r.off]
	all := string(raw)
	r.pool = make([]string, n)
	off := 0
	for i := range r.pool {
		l, k := binary.Uvarint(raw[off:]) // read once already, cannot fail
		off += k
		r.pool[i] = all[off : off+int(l)]
		off += int(l)
	}
}
