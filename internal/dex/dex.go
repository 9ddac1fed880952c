// Package dex serializes ir.Program values into the .apkb binary container
// and parses them back. The container is the analog of an Android APK/DEX
// file: it is the *only* input the analyzer consumes, keeping Extractocol's
// "application binary as sole input" property. It is sealed and encoded in
// the format of package wire under the magic "APKB", and uses a shared
// string pool, as DEX does.
//
// The payload is: string pool, manifest, resources, classes. The pool is a
// count of length-prefixed strings; everywhere else a string is a pool
// index.
package dex

import (
	"fmt"
	"os"
	"sort"

	"extractocol/internal/budget"
	"extractocol/internal/ir"
	"extractocol/internal/wire"
)

// Magic identifies .apkb containers.
var Magic = [4]byte{'A', 'P', 'K', 'B'}

// Version is the current container format version.
const Version uint16 = 2

// Encode serializes p into the .apkb container format.
func Encode(p *ir.Program) ([]byte, error) {
	w := &writer{}

	// Manifest.
	w.str(p.Manifest.Package)
	w.str(p.Manifest.AppName)
	w.Bool(p.Manifest.Obfuscated)
	w.Uvarint(uint64(len(p.Manifest.EntryPoints)))
	for _, ep := range p.Manifest.EntryPoints {
		w.str(ep.Method)
		w.Uvarint(uint64(ep.Kind))
		w.str(ep.Label)
	}

	// Resources, sorted for determinism.
	keys := make([]string, 0, len(p.Resources))
	for k := range p.Resources {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(p.Resources[k])
	}

	// Classes.
	classes := p.Classes()
	w.Uvarint(uint64(len(classes)))
	for _, c := range classes {
		encodeClass(w, c)
	}

	// The pool goes first in the payload, but is complete only now.
	var pool wire.Writer
	pool.Uvarint(uint64(len(w.pool.strs)))
	for _, s := range w.pool.strs {
		pool.String(s)
	}
	return wire.Seal(Magic, Version, pool.Bytes(), w.Bytes()), nil
}

func encodeClass(w *writer, c *ir.Class) {
	w.str(c.Name)
	w.str(c.Super)
	w.Bool(c.Library)
	w.Uvarint(uint64(len(c.Interfaces)))
	for _, i := range c.Interfaces {
		w.str(i)
	}
	w.Uvarint(uint64(len(c.Fields)))
	for _, f := range c.Fields {
		w.str(f.Name)
		w.str(f.Type)
		w.Bool(f.Static)
	}
	w.Uvarint(uint64(len(c.Methods)))
	for _, m := range c.Methods {
		encodeMethod(w, m)
	}
}

func encodeMethod(w *writer, m *ir.Method) {
	w.str(m.Name)
	w.str(m.Return)
	w.Bool(m.Static)
	w.Uvarint(uint64(len(m.Params)))
	for _, p := range m.Params {
		w.str(p)
	}
	w.Uvarint(uint64(m.Registers))
	w.Uvarint(uint64(len(m.Instrs)))
	for i := range m.Instrs {
		encodeInstr(w, &m.Instrs[i])
	}
}

func encodeInstr(w *writer, in *ir.Instr) {
	w.Uvarint(uint64(in.Op))
	w.reg(in.Dst)
	w.reg(in.A)
	w.reg(in.B)
	w.Uvarint(uint64(len(in.Args)))
	for _, a := range in.Args {
		w.reg(a)
	}
	w.str(in.Sym)
	w.str(in.Str)
	w.Varint(in.Int)
	w.Varint(int64(in.Target))
	w.Uvarint(uint64(in.Kind))
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
	payload, err := wire.Unseal(data, Magic, Version)
	if err != nil {
		return nil, fmt.Errorf("dex: %w", err)
	}
	r := &reader{Reader: wire.NewReader(payload)}
	r.readPool(payload)

	p := ir.NewProgram("")
	p.Manifest.Package = r.str()
	p.Manifest.AppName = r.str()
	p.Manifest.Obfuscated = r.Bool()
	if n := r.Count(minEntryPoint); n > 0 {
		p.Manifest.EntryPoints = make([]ir.EntryPoint, n)
	}
	for i := range p.Manifest.EntryPoints {
		ep := &p.Manifest.EntryPoints[i]
		ep.Method, ep.Kind, ep.Label = r.str(), ir.EventKind(r.Uvarint()), r.str()
		if r.Err() != nil {
			break
		}
	}
	res := r.Count(minResource)
	for i := uint64(0); i < res && r.Err() == nil; i++ {
		k := r.str()
		p.Resources[k] = r.str()
	}
	classes := make([]ir.Class, r.Count(minClass))
	for i := range classes {
		c := &classes[i]
		r.class(c)
		if r.Err() != nil {
			break
		}
		p.AddClass(c)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dex: truncated container: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dex: invalid program: %w", err)
	}
	return p, nil
}

// Minimum encoded sizes, in bytes, of the elements a count announces: one
// byte per varint, bool or pool index they hold. wire.Reader.Count bounds
// each count by the bytes left, so a hostile count fails before anything
// is sized from it.
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
	c.Name, c.Super, c.Library = r.str(), r.str(), r.Bool()
	c.Interfaces = r.names()
	if n := r.Count(minField); n > 0 {
		fields := make([]ir.Field, n)
		c.Fields = make([]*ir.Field, n)
		for i := range fields {
			f := &fields[i]
			f.Name, f.Type, f.Static = r.str(), r.str(), r.Bool()
			c.Fields[i] = f
			if r.Err() != nil {
				return
			}
		}
	}
	if n := r.Count(minMethod); n > 0 {
		methods := make([]ir.Method, n)
		c.Methods = make([]*ir.Method, n)
		for i := range methods {
			m := &methods[i]
			m.Class = c // Program.AddClass builds the ref
			r.method(m)
			c.Methods[i] = m
			if r.Err() != nil {
				return
			}
		}
	}
}

func (r *reader) method(m *ir.Method) {
	m.Name, m.Return, m.Static = r.str(), r.str(), r.Bool()
	m.Params = r.names()
	m.Registers = int(r.Uvarint())
	m.Instrs = make([]ir.Instr, r.Count(minInstr))
	for i := range m.Instrs {
		r.instr(&m.Instrs[i])
		if r.Err() != nil {
			return
		}
	}
}

func (r *reader) instr(in *ir.Instr) {
	in.Op = ir.Op(r.Uvarint())
	in.Dst = r.reg()
	in.A = r.reg()
	in.B = r.reg()
	in.Args = carve(&r.regs, r.Count(minArg), regsChunk)
	for i := 0; i < len(in.Args) && r.Err() == nil; i++ {
		in.Args[i] = r.reg()
	}
	in.Sym = r.str()
	in.Str = r.str()
	in.Int = r.Varint()
	in.Target = int(r.Varint())
	in.Kind = ir.InvokeKind(r.Uvarint())
}

// names reads a counted list of pool strings: a class's interfaces or a
// method's parameter types.
func (r *reader) names() []string {
	out := carve(&r.strs, r.Count(minName), strsChunk)
	for i := 0; i < len(out) && r.Err() == nil; i++ {
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

// ---- string pool and registers ----

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
	wire.Writer
	pool stringPool
}

// str interns s in the pool and writes its index.
func (w *writer) str(s string) { w.Uvarint(w.pool.id(s)) }

// reg writes a register index; ir.NoReg is negative, hence signed.
func (w *writer) reg(r int) { w.Varint(int64(r)) }

type reader struct {
	wire.Reader
	pool []string

	strs []string // backing array for Interfaces and Params, see carve
	regs []int    // backing array for Args
}

func (r *reader) reg() int { return int(r.Varint()) }

func (r *reader) str() string {
	id := r.Uvarint()
	if r.Err() != nil {
		return ""
	}
	if id >= uint64(len(r.pool)) {
		r.Fail(fmt.Errorf("string pool index %d out of range", id))
		return ""
	}
	return r.pool[id]
}

// readPool reads the string pool at the start of payload into one string,
// of which every entry is a substring. The first walk finds where the pool
// ends, the second slices the entries out of the copy.
func (r *reader) readPool(payload []byte) {
	n := r.Count(minPoolEntry)
	start := r.Offset()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		r.Span()
	}
	if r.Err() != nil {
		return
	}
	raw := payload[start:r.Offset()]
	all := string(raw)
	r.pool = make([]string, n)
	walk := wire.NewReader(raw) // read once already, cannot fail
	for i := range r.pool {
		s, e := walk.Span()
		r.pool[i] = all[s:e]
	}
}
