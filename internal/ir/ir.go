// Package ir defines the typed, register-based three-address intermediate
// representation that all analyses in this repository consume.
//
// The IR plays the role Jimple plays in the original Extractocol system: a
// small instruction set over virtual registers, grouped into methods and
// classes, with symbolic references for fields, methods and types. Programs
// are authored with the Builder API (see build.go), serialized into binary
// .apkb containers by package dex, and analyzed by the cfg, callgraph,
// taint, slice and sigbuild packages.
//
// Registers are plain integers. For a method with N parameters the first N
// registers hold the incoming arguments; for instance methods register 0
// holds the receiver and parameters start at register 1.
package ir

import (
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
)

// Op enumerates the IR instruction opcodes.
type Op uint8

// Instruction opcodes. The set intentionally mirrors the subset of Dalvik /
// Jimple that matters for protocol extraction: constants, moves, object and
// field operations, invocations, branches and returns.
const (
	OpNop Op = iota
	// OpConstStr loads the string literal Str into Dst.
	OpConstStr
	// OpConstInt loads the integer literal Int into Dst.
	OpConstInt
	// OpConstNull loads null into Dst.
	OpConstNull
	// OpMove copies register A into Dst.
	OpMove
	// OpNew allocates an instance of type Sym into Dst. Constructors are
	// separate OpInvoke instructions on the allocated value.
	OpNew
	// OpInvoke calls the method named by Sym. Args holds the argument
	// registers; for instance calls Args[0] is the receiver. Dst receives
	// the return value, or is NoReg for void calls.
	OpInvoke
	// OpFieldGet loads field Sym of the object in register A into Dst.
	OpFieldGet
	// OpFieldPut stores register B into field Sym of the object in A.
	OpFieldPut
	// OpStaticGet loads the static field Sym into Dst.
	OpStaticGet
	// OpStaticPut stores register B into the static field Sym.
	OpStaticPut
	// OpIfZ branches to Target when register A is zero/null.
	OpIfZ
	// OpIfNZ branches to Target when register A is non-zero/non-null.
	OpIfNZ
	// OpIfEq branches to Target when registers A and B are equal.
	OpIfEq
	// OpIfNe branches to Target when registers A and B differ.
	OpIfNe
	// OpGoto branches unconditionally to Target.
	OpGoto
	// OpReturn returns register A, or returns void when A is NoReg.
	OpReturn
	// OpBinop applies the integer operator in Str ("+", "-", "*") to A and
	// B, storing the result in Dst. String concatenation is expressed via
	// StringBuilder semantics instead, as it is in Dalvik bytecode.
	OpBinop
)

// NoReg marks an absent register operand (no destination, void return).
const NoReg = -1

var opNames = [...]string{
	OpNop: "nop", OpConstStr: "const-str", OpConstInt: "const-int",
	OpConstNull: "const-null", OpMove: "move", OpNew: "new",
	OpInvoke: "invoke", OpFieldGet: "fget", OpFieldPut: "fput",
	OpStaticGet: "sget", OpStaticPut: "sput", OpIfZ: "if-z",
	OpIfNZ: "if-nz", OpIfEq: "if-eq", OpIfNe: "if-ne", OpGoto: "goto",
	OpReturn: "return", OpBinop: "binop",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// InvokeKind distinguishes dispatch styles for OpInvoke.
type InvokeKind uint8

// Invocation kinds.
const (
	// InvokeVirtual dispatches on the dynamic type of Args[0].
	InvokeVirtual InvokeKind = iota
	// InvokeStatic has no receiver.
	InvokeStatic
	// InvokeSpecial calls the exact named method (constructors, super).
	InvokeSpecial
	// InvokeInterface dispatches through an interface method.
	InvokeInterface
)

var invokeKindNames = [...]string{"virtual", "static", "special", "interface"}

// String returns the lower-case name of the invoke kind.
func (k InvokeKind) String() string {
	if int(k) < len(invokeKindNames) {
		return invokeKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Instr is a single IR instruction. Which fields are meaningful depends on
// Op; unused register fields hold NoReg and unused Target holds -1.
type Instr struct {
	Op     Op
	Dst    int        // destination register or NoReg
	A, B   int        // operand registers or NoReg
	Args   []int      // OpInvoke argument registers (receiver first)
	Sym    string     // method/field/type reference or binop operator
	Str    string     // string literal for OpConstStr
	Int    int64      // integer literal for OpConstInt
	Target int        // branch target as an instruction index, or -1
	Kind   InvokeKind // dispatch style for OpInvoke
}

// Uses returns the registers read by the instruction, in operand order.
func (in *Instr) Uses() []int {
	switch in.Op {
	case OpMove, OpFieldGet, OpIfZ, OpIfNZ:
		return regs(in.A)
	case OpFieldPut:
		return regs(in.A, in.B)
	case OpStaticPut:
		return regs(in.B)
	case OpIfEq, OpIfNe, OpBinop:
		return regs(in.A, in.B)
	case OpReturn:
		return regs(in.A)
	case OpInvoke:
		out := make([]int, 0, len(in.Args))
		for _, a := range in.Args {
			if a != NoReg {
				out = append(out, a)
			}
		}
		return out
	default:
		return nil
	}
}

// EachUse calls f for every register the instruction reads, in operand
// order. It is the allocation-free form of Uses for the analysis hot
// loops: Uses builds a fresh slice per call, which the profile shows as
// the single largest allocation site in slicing.
func (in *Instr) EachUse(f func(reg int)) {
	switch in.Op {
	case OpMove, OpFieldGet, OpIfZ, OpIfNZ, OpReturn:
		if in.A != NoReg {
			f(in.A)
		}
	case OpFieldPut, OpIfEq, OpIfNe, OpBinop:
		if in.A != NoReg {
			f(in.A)
		}
		if in.B != NoReg {
			f(in.B)
		}
	case OpStaticPut:
		if in.B != NoReg {
			f(in.B)
		}
	case OpInvoke:
		for _, a := range in.Args {
			if a != NoReg {
				f(a)
			}
		}
	}
}

// Def returns the register written by the instruction, or NoReg.
func (in *Instr) Def() int {
	switch in.Op {
	case OpConstStr, OpConstInt, OpConstNull, OpMove, OpNew, OpFieldGet,
		OpStaticGet, OpBinop:
		return in.Dst
	case OpInvoke:
		return in.Dst
	default:
		return NoReg
	}
}

// IsBranch reports whether the instruction may transfer control to Target.
func (in *Instr) IsBranch() bool {
	switch in.Op {
	case OpIfZ, OpIfNZ, OpIfEq, OpIfNe, OpGoto:
		return true
	}
	return false
}

// IsConditional reports whether the instruction is a conditional branch,
// i.e. control may also fall through to the next instruction.
func (in *Instr) IsConditional() bool {
	return in.IsBranch() && in.Op != OpGoto
}

// Terminates reports whether control never falls through to the next
// instruction.
func (in *Instr) Terminates() bool {
	return in.Op == OpGoto || in.Op == OpReturn
}

func regs(rs ...int) []int {
	out := rs[:0]
	for _, r := range rs {
		if r != NoReg {
			out = append(out, r)
		}
	}
	return out
}

// String renders the instruction in a compact assembly-like form.
func (in *Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpConstStr:
		fmt.Fprintf(&b, " r%d, %q", in.Dst, in.Str)
	case OpConstInt:
		fmt.Fprintf(&b, " r%d, %d", in.Dst, in.Int)
	case OpConstNull:
		fmt.Fprintf(&b, " r%d", in.Dst)
	case OpMove:
		fmt.Fprintf(&b, " r%d, r%d", in.Dst, in.A)
	case OpNew:
		fmt.Fprintf(&b, " r%d, %s", in.Dst, in.Sym)
	case OpInvoke:
		fmt.Fprintf(&b, "-%s", in.Kind)
		if in.Dst != NoReg {
			fmt.Fprintf(&b, " r%d =", in.Dst)
		}
		fmt.Fprintf(&b, " %s(", in.Sym)
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "r%d", a)
		}
		b.WriteString(")")
	case OpFieldGet:
		fmt.Fprintf(&b, " r%d, r%d.%s", in.Dst, in.A, in.Sym)
	case OpFieldPut:
		fmt.Fprintf(&b, " r%d.%s, r%d", in.A, in.Sym, in.B)
	case OpStaticGet:
		fmt.Fprintf(&b, " r%d, %s", in.Dst, in.Sym)
	case OpStaticPut:
		fmt.Fprintf(&b, " %s, r%d", in.Sym, in.B)
	case OpIfZ, OpIfNZ:
		fmt.Fprintf(&b, " r%d, @%d", in.A, in.Target)
	case OpIfEq, OpIfNe:
		fmt.Fprintf(&b, " r%d, r%d, @%d", in.A, in.B, in.Target)
	case OpGoto:
		fmt.Fprintf(&b, " @%d", in.Target)
	case OpReturn:
		if in.A != NoReg {
			fmt.Fprintf(&b, " r%d", in.A)
		}
	case OpBinop:
		fmt.Fprintf(&b, " r%d, r%d %s r%d", in.Dst, in.A, in.Sym, in.B)
	}
	return b.String()
}

// Field describes a class field.
type Field struct {
	Name   string
	Type   string
	Static bool
}

// Method is a single method body: a flat instruction list with branch
// targets expressed as instruction indices.
type Method struct {
	Class     *Class // owning class, set by Class.AddMethod
	Name      string
	Params    []string // parameter types, excluding the receiver
	Return    string   // return type, or "void"
	Static    bool
	Registers int // number of virtual registers used
	Instrs    []Instr

	// ref caches "Class.Name". It is (re)computed by Class.AddMethod and
	// Program.AddClass — the only attachment points — so renames that go
	// through a program rebuild (obfuscation) refresh it. Ref never writes
	// it, keeping concurrent Ref calls race-free.
	ref string
}

// Ref returns the method's fully qualified reference "Class.Name".
func (m *Method) Ref() string {
	if m.ref != "" {
		return m.ref
	}
	return m.Class.Name + "." + m.Name
}

// NumParamRegs returns how many leading registers hold incoming values
// (receiver plus parameters).
func (m *Method) NumParamRegs() int {
	n := len(m.Params)
	if !m.Static {
		n++
	}
	return n
}

// String renders the method signature and body as assembly-like text.
func (m *Method) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) %s {\n", m.Ref(), strings.Join(m.Params, ", "), m.Return)
	for i := range m.Instrs {
		fmt.Fprintf(&b, "  %3d: %s\n", i, m.Instrs[i].String())
	}
	b.WriteString("}")
	return b.String()
}

// Class groups fields and methods under a fully qualified name such as
// "com.example.app.MainActivity".
type Class struct {
	Name       string
	Super      string // fully qualified superclass name, or ""
	Interfaces []string
	Fields     []*Field
	Methods    []*Method
	// Library marks classes that belong to the modeled platform API
	// surface (java.*, android.*, org.apache.http.*, ...). Library classes
	// carry no analyzable bodies; their behavior comes from the semantic
	// model.
	Library bool
}

// AddMethod appends m to the class and sets its back-reference.
func (c *Class) AddMethod(m *Method) *Method {
	m.Class = c
	m.ref = c.Name + "." + m.Name
	c.Methods = append(c.Methods, m)
	return m
}

// Method returns the class's own method with the given name, or nil.
func (c *Class) Method(name string) *Method {
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Field returns the class's own field with the given name, or nil.
func (c *Class) Field(name string) *Field {
	for _, f := range c.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// EventKind classifies how an entry point is triggered at run time. The
// static analyzer treats all entry points uniformly; the kinds exist so the
// dynamic baselines (manual and automatic UI fuzzing) can reproduce their
// real-world reachability limits, and so intent-triggered flows can be
// excluded from static analysis exactly as in the paper (§3.4, §5.1).
type EventKind uint8

// Event kinds, ordered roughly by how hard they are to trigger dynamically.
const (
	// EventCreate fires when the app starts (Activity.onCreate).
	EventCreate EventKind = iota
	// EventClick is a standard clickable UI element; reachable by both
	// manual and automatic (PUMA-style) fuzzing.
	EventClick
	// EventCustomUI is a click on a custom-drawn widget that UI-automation
	// tools fail to recognize; reachable only by manual fuzzing.
	EventCustomUI
	// EventLogin requires credentials / signup; manual fuzzing only.
	EventLogin
	// EventAction has real-world side effects (purchases, job
	// applications); not reachable by any fuzzing in the paper's setup.
	EventAction
	// EventTimer fires from timers (APK update checks); not reachable by
	// UI fuzzing.
	EventTimer
	// EventServerPush fires in response to server-initiated content
	// updates; not reachable by UI fuzzing.
	EventServerPush
	// EventLocation fires from location-service callbacks.
	EventLocation
	// EventIntent fires via Android intents. Extractocol does not model
	// intents, so statically these entry points are invisible (§4).
	EventIntent
)

var eventKindNames = [...]string{
	"create", "click", "customui", "login", "action", "timer",
	"serverpush", "location", "intent",
}

// String returns the lower-case name of the event kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// EntryPoint declares an externally triggered handler method, the analog of
// a lifecycle/UI callback registered in an Android manifest or layout.
type EntryPoint struct {
	Method string    // fully qualified "Class.method"
	Kind   EventKind // how the handler is triggered
	Label  string    // human-readable trigger label ("btn_search")
}

// Manifest carries app-level metadata shipped inside the binary container.
type Manifest struct {
	Package     string // application package, e.g. "com.kayak.android"
	AppName     string
	Obfuscated  bool
	EntryPoints []EntryPoint
}

// Program is a complete application: classes, manifest and resources (the
// analog of res/values/strings.xml referenced through Android.R).
type Program struct {
	Manifest  Manifest
	Resources map[string]string // resource key -> string value
	classes   map[string]*Class
	order     []string // class names in insertion order
}

// NewProgram returns an empty program with the given package name.
func NewProgram(pkg string) *Program {
	return &Program{
		Manifest:  Manifest{Package: pkg},
		Resources: map[string]string{},
		classes:   map[string]*Class{},
	}
}

// AddClass inserts c, replacing any previous class with the same name. The
// cached method refs are refreshed: a program rebuild after renaming
// (obfuscation) re-adds every class here with its final name.
func (p *Program) AddClass(c *Class) *Class {
	if _, ok := p.classes[c.Name]; !ok {
		p.order = append(p.order, c.Name)
	}
	for _, m := range c.Methods {
		m.ref = c.Name + "." + m.Name
	}
	p.classes[c.Name] = c
	return c
}

// Class returns the class with the given fully qualified name, or nil.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// Classes returns all classes in insertion order.
func (p *Program) Classes() []*Class {
	out := make([]*Class, 0, len(p.order))
	for _, n := range p.order {
		out = append(out, p.classes[n])
	}
	return out
}

// AppClasses returns non-library classes in insertion order.
func (p *Program) AppClasses() []*Class {
	var out []*Class
	for _, c := range p.Classes() {
		if !c.Library {
			out = append(out, c)
		}
	}
	return out
}

// Method resolves a fully qualified "Class.method" reference to its body,
// or nil when unknown. It does not walk the class hierarchy; use
// ResolveMethod for dispatch-aware lookup.
func (p *Program) Method(ref string) *Method {
	cls, name, ok := SplitRef(ref)
	if !ok {
		return nil
	}
	c := p.classes[cls]
	if c == nil {
		return nil
	}
	return c.Method(name)
}

// ResolveMethod looks up name on class cls, walking the superclass chain,
// mirroring virtual dispatch resolution. It returns nil when the method is
// not found or only exists on a library class.
func (p *Program) ResolveMethod(cls, name string) *Method {
	for c := p.classes[cls]; c != nil; c = p.classes[c.Super] {
		if m := c.Method(name); m != nil {
			return m
		}
		if c.Super == "" {
			break
		}
	}
	return nil
}

// InstrCount returns the total number of instructions across app classes.
func (p *Program) InstrCount() int {
	n := 0
	for _, c := range p.AppClasses() {
		for _, m := range c.Methods {
			n += len(m.Instrs)
		}
	}
	return n
}

// SplitRef splits "pkg.Class.method" into class and member names at the
// last dot. ok is false when ref contains no dot.
func SplitRef(ref string) (cls, member string, ok bool) {
	i := strings.LastIndexByte(ref, '.')
	if i < 0 {
		return "", "", false
	}
	return ref[:i], ref[i+1:], true
}

// Validate checks structural invariants: acyclic superclass chains,
// unique method names within each class (a method ref carries no
// signature, so two same-named bodies would share one ref), branch targets
// in range, register operands within the declared register count, entry
// points resolvable. It returns a descriptive error for the first
// violation found, and allocates nothing on a valid program.
func (p *Program) Validate() error {
	var dup dupSet
	for _, n := range p.order {
		c := p.classes[n]
		if p.superCycle(c) {
			return fmt.Errorf("class %s: superclass chain is cyclic", c.Name)
		}
		if name, ok := dup.find(c); ok {
			return fmt.Errorf("class %s: method %s is declared more than once", c.Name, name)
		}
		for _, m := range c.Methods {
			if err := validateMethod(m); err != nil {
				return fmt.Errorf("%s: %w", m.Ref(), err)
			}
		}
	}
	for _, ep := range p.Manifest.EntryPoints {
		if p.Method(ep.Method) == nil {
			return fmt.Errorf("entry point %s: method not found", ep.Method)
		}
	}
	return nil
}

// dupSet finds a method name a class declares twice in linear time. Its
// open-addressing table of method positions lives inside the value, so a
// Validate call keeps it on the stack; only a class with more methods than
// half the table falls back to a map.
type dupSet struct {
	seed maphash.Seed
	tab  [2048]uint16 // method index + 1; 0 marks an empty slot
}

func (d *dupSet) find(c *Class) (string, bool) {
	n := len(c.Methods)
	if n < 2 {
		return "", false
	}
	if 2*n > len(d.tab) {
		seen := make(map[string]bool, n)
		for _, m := range c.Methods {
			if seen[m.Name] {
				return m.Name, true
			}
			seen[m.Name] = true
		}
		return "", false
	}
	if d.seed == (maphash.Seed{}) {
		d.seed = maphash.MakeSeed()
	}
	size := 8
	for size < 2*n {
		size *= 2
	}
	tab := d.tab[:size]
	clear(tab)
	mask := uint64(size - 1)
	for i, m := range c.Methods {
		h := maphash.String(d.seed, m.Name) & mask
		for tab[h] != 0 {
			if c.Methods[tab[h]-1].Name == m.Name {
				return m.Name, true
			}
			h = (h + 1) & mask
		}
		tab[h] = uint16(i + 1)
	}
	return "", false
}

// superCycle reports whether c's superclass chain revisits a class. An
// acyclic chain passes at most len(p.classes)-1 classes above c, so a walk
// that gets further, or back to c, has entered a cycle — one through c or
// one further up.
func (p *Program) superCycle(c *Class) bool {
	for s, steps := c.Super, 0; s != ""; steps++ {
		sc := p.classes[s]
		if sc == nil {
			return false
		}
		if sc == c || steps == len(p.classes) {
			return true
		}
		s = sc.Super
	}
	return false
}

func validateMethod(m *Method) error {
	if m.NumParamRegs() > m.Registers {
		return fmt.Errorf("declares %d registers but has %d parameter registers",
			m.Registers, m.NumParamRegs())
	}
	check := func(i int, r int) error {
		if r != NoReg && (r < 0 || r >= m.Registers) {
			return fmt.Errorf("instr %d: register r%d out of range [0,%d)", i, r, m.Registers)
		}
		return nil
	}
	for i := range m.Instrs {
		in := &m.Instrs[i]
		if in.IsBranch() {
			if in.Target < 0 || in.Target >= len(m.Instrs) {
				return fmt.Errorf("instr %d: branch target %d out of range", i, in.Target)
			}
		}
		for _, r := range [...]int{in.Dst, in.A, in.B} {
			if err := check(i, r); err != nil {
				return err
			}
		}
		for _, r := range in.Args {
			if err := check(i, r); err != nil {
				return err
			}
		}
	}
	if n := len(m.Instrs); n > 0 {
		last := &m.Instrs[n-1]
		if !last.Terminates() {
			return fmt.Errorf("falls off the end (last instr %s)", last.Op)
		}
	}
	return nil
}

// Disassemble renders every app class of the program in assembly-like
// text, the debugging view of an .apkb container.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "package %s (%s)\n", p.Manifest.Package, p.Manifest.AppName)
	for _, ep := range p.Manifest.EntryPoints {
		fmt.Fprintf(&b, "entry %s [%s]\n", ep.Method, ep.Kind)
	}
	keys := make([]string, 0, len(p.Resources))
	for k := range p.Resources {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "resource %s = %q\n", k, p.Resources[k])
	}
	for _, c := range p.AppClasses() {
		fmt.Fprintf(&b, "\nclass %s", c.Name)
		if c.Super != "" {
			fmt.Fprintf(&b, " extends %s", c.Super)
		}
		if len(c.Interfaces) > 0 {
			fmt.Fprintf(&b, " implements %s", strings.Join(c.Interfaces, ", "))
		}
		b.WriteString("\n")
		for _, f := range c.Fields {
			static := ""
			if f.Static {
				static = "static "
			}
			fmt.Fprintf(&b, "  field %s%s %s\n", static, f.Type, f.Name)
		}
		for _, m := range c.Methods {
			b.WriteString(indent(m.String(), "  "))
			b.WriteString("\n")
		}
	}
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
