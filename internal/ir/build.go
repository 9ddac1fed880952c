package ir

import "fmt"

// B is a fluent method-body builder. It allocates registers, records
// instructions, and patches symbolic labels into instruction indices when
// Done is called. Builders panic on misuse (unknown label, double Done):
// they are authoring tools for tests and the corpus generator, so misuse is
// a programming error, not a runtime condition.
type B struct {
	m      *Method
	next   int            // next free register
	labels map[string]int // label -> instruction index
	fixups []fixup
	done   bool
}

type fixup struct {
	instr int
	label string
}

// NewMethod creates a method on cls and returns a builder for its body.
// Parameter registers are pre-allocated: use Param to obtain them.
func NewMethod(cls *Class, name string, static bool, params []string, ret string) *B {
	m := &Method{Name: name, Params: params, Return: ret, Static: static}
	cls.AddMethod(m)
	b := &B{m: m, labels: map[string]int{}}
	b.next = m.NumParamRegs()
	return b
}

// This returns the receiver register (register 0) for instance methods.
func (b *B) This() int {
	if b.m.Static {
		panic("ir: This on static method " + b.m.Name)
	}
	return 0
}

// Param returns the register holding the i-th declared parameter.
func (b *B) Param(i int) int {
	if i < 0 || i >= len(b.m.Params) {
		panic(fmt.Sprintf("ir: param %d out of range in %s", i, b.m.Name))
	}
	if b.m.Static {
		return i
	}
	return i + 1
}

// Reg allocates a fresh register.
func (b *B) Reg() int {
	r := b.next
	b.next++
	return r
}

func (b *B) emit(in Instr) int {
	b.m.Instrs = append(b.m.Instrs, in)
	return len(b.m.Instrs) - 1
}

// ConstStr loads a string literal into a fresh register and returns it.
func (b *B) ConstStr(s string) int {
	r := b.Reg()
	b.emit(Instr{Op: OpConstStr, Dst: r, A: NoReg, B: NoReg, Str: s, Target: -1})
	return r
}

// ConstInt loads an integer literal into a fresh register and returns it.
func (b *B) ConstInt(v int64) int {
	r := b.Reg()
	b.emit(Instr{Op: OpConstInt, Dst: r, A: NoReg, B: NoReg, Int: v, Target: -1})
	return r
}

// MoveTo copies src into dst.
func (b *B) MoveTo(dst, src int) {
	b.emit(Instr{Op: OpMove, Dst: dst, A: src, B: NoReg, Target: -1})
}

// New allocates an object of the given type into a fresh register.
func (b *B) New(typ string) int {
	r := b.Reg()
	b.emit(Instr{Op: OpNew, Dst: r, A: NoReg, B: NoReg, Sym: typ, Target: -1})
	return r
}

// Invoke emits a virtual call recv.method(args...) returning a fresh
// register holding the result.
func (b *B) Invoke(method string, recv int, args ...int) int {
	r := b.Reg()
	b.invoke(InvokeVirtual, r, method, append([]int{recv}, args...))
	return r
}

// InvokeVoid emits a virtual call whose result is discarded.
func (b *B) InvokeVoid(method string, recv int, args ...int) {
	b.invoke(InvokeVirtual, NoReg, method, append([]int{recv}, args...))
}

// InvokeStatic emits a static call returning a fresh register.
func (b *B) InvokeStatic(method string, args ...int) int {
	r := b.Reg()
	b.invoke(InvokeStatic, r, method, args)
	return r
}

// InvokeStaticVoid emits a static call whose result is discarded.
func (b *B) InvokeStaticVoid(method string, args ...int) {
	b.invoke(InvokeStatic, NoReg, method, args)
}

// InvokeSpecial emits an exact (constructor/super) call with no result.
func (b *B) InvokeSpecial(method string, recv int, args ...int) {
	b.invoke(InvokeSpecial, NoReg, method, append([]int{recv}, args...))
}

func (b *B) invoke(kind InvokeKind, dst int, method string, args []int) {
	cp := make([]int, len(args))
	copy(cp, args)
	b.emit(Instr{Op: OpInvoke, Dst: dst, A: NoReg, B: NoReg, Kind: kind,
		Sym: method, Args: cp, Target: -1})
}

// FieldGet loads obj.field into a fresh register.
func (b *B) FieldGet(obj int, field string) int {
	r := b.Reg()
	b.emit(Instr{Op: OpFieldGet, Dst: r, A: obj, B: NoReg, Sym: field, Target: -1})
	return r
}

// FieldPut stores src into obj.field.
func (b *B) FieldPut(obj int, field string, src int) {
	b.emit(Instr{Op: OpFieldPut, Dst: NoReg, A: obj, B: src, Sym: field, Target: -1})
}

// StaticGet loads the static field "Class.field" into a fresh register.
func (b *B) StaticGet(ref string) int {
	r := b.Reg()
	b.emit(Instr{Op: OpStaticGet, Dst: r, A: NoReg, B: NoReg, Sym: ref, Target: -1})
	return r
}

// StaticPut stores src into the static field "Class.field".
func (b *B) StaticPut(ref string, src int) {
	b.emit(Instr{Op: OpStaticPut, Dst: NoReg, A: NoReg, B: src, Sym: ref, Target: -1})
}

// Binop applies an integer operator to a and c, returning a fresh register.
func (b *B) Binop(op string, a, c int) int {
	r := b.Reg()
	b.emit(Instr{Op: OpBinop, Dst: r, A: a, B: c, Sym: op, Target: -1})
	return r
}

// Label declares a jump target at the next emitted instruction.
func (b *B) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic("ir: duplicate label " + name + " in " + b.m.Name)
	}
	b.labels[name] = len(b.m.Instrs)
}

// IfZ branches to label when r is zero/null.
func (b *B) IfZ(r int, label string) {
	i := b.emit(Instr{Op: OpIfZ, Dst: NoReg, A: r, B: NoReg, Target: -1})
	b.fixups = append(b.fixups, fixup{i, label})
}

// IfNZ branches to label when r is non-zero.
func (b *B) IfNZ(r int, label string) {
	i := b.emit(Instr{Op: OpIfNZ, Dst: NoReg, A: r, B: NoReg, Target: -1})
	b.fixups = append(b.fixups, fixup{i, label})
}

// IfEq branches to label when x == y.
func (b *B) IfEq(x, y int, label string) {
	i := b.emit(Instr{Op: OpIfEq, Dst: NoReg, A: x, B: y, Target: -1})
	b.fixups = append(b.fixups, fixup{i, label})
}

// Goto branches unconditionally to label.
func (b *B) Goto(label string) {
	i := b.emit(Instr{Op: OpGoto, Dst: NoReg, A: NoReg, B: NoReg, Target: -1})
	b.fixups = append(b.fixups, fixup{i, label})
}

// Return emits a value return.
func (b *B) Return(r int) {
	b.emit(Instr{Op: OpReturn, Dst: NoReg, A: r, B: NoReg, Target: -1})
}

// ReturnVoid emits a void return.
func (b *B) ReturnVoid() {
	b.emit(Instr{Op: OpReturn, Dst: NoReg, A: NoReg, B: NoReg, Target: -1})
}

// Done patches labels, finalizes the register count, and returns the
// completed method. A builder must not be used after Done.
func (b *B) Done() *Method {
	if b.done {
		panic("ir: Done called twice on " + b.m.Name)
	}
	b.done = true
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			panic("ir: undefined label " + f.label + " in " + b.m.Name)
		}
		if idx >= len(b.m.Instrs) {
			panic("ir: label " + f.label + " points past end of " + b.m.Name)
		}
		b.m.Instrs[f.instr].Target = idx
	}
	if len(b.m.Instrs) == 0 || !b.m.Instrs[len(b.m.Instrs)-1].Terminates() {
		b.m.Instrs = append(b.m.Instrs, Instr{Op: OpReturn, Dst: NoReg, A: NoReg, B: NoReg, Target: -1})
	}
	b.m.Registers = b.next
	return b.m
}
