package ir

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func buildSample() (*Program, *Method) {
	p := NewProgram("com.example.sample")
	c := p.AddClass(&Class{Name: "com.example.sample.Main"})
	b := NewMethod(c, "greet", false, []string{"java.lang.String"}, "java.lang.String")
	name := b.Param(0)
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial("java.lang.StringBuilder.<init>", sb)
	hello := b.ConstStr("hello ")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, hello)
	b.InvokeVoid("java.lang.StringBuilder.append", sb, name)
	out := b.Invoke("java.lang.StringBuilder.toString", sb)
	b.Return(out)
	m := b.Done()
	return p, m
}

func TestBuilderProducesValidMethod(t *testing.T) {
	p, m := buildSample()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m.Registers < m.NumParamRegs() {
		t.Fatalf("registers %d < param regs %d", m.Registers, m.NumParamRegs())
	}
	if got := m.Ref(); got != "com.example.sample.Main.greet" {
		t.Fatalf("Ref = %q", got)
	}
}

func TestParamAndThisRegisters(t *testing.T) {
	p := NewProgram("t")
	c := p.AddClass(&Class{Name: "t.C"})
	inst := NewMethod(c, "inst", false, []string{"int", "int"}, "void")
	if inst.This() != 0 {
		t.Errorf("This = %d, want 0", inst.This())
	}
	if inst.Param(0) != 1 || inst.Param(1) != 2 {
		t.Errorf("instance params = %d,%d want 1,2", inst.Param(0), inst.Param(1))
	}
	inst.ReturnVoid()
	inst.Done()

	st := NewMethod(c, "st", true, []string{"int"}, "void")
	if st.Param(0) != 0 {
		t.Errorf("static param = %d, want 0", st.Param(0))
	}
	st.ReturnVoid()
	st.Done()
}

func TestLabelsAndBranches(t *testing.T) {
	p := NewProgram("t")
	c := p.AddClass(&Class{Name: "t.C"})
	b := NewMethod(c, "abs", true, []string{"int"}, "int")
	x := b.Param(0)
	zero := b.ConstInt(0)
	b.IfEq(x, zero, "done")
	b.Label("done")
	b.Return(x)
	m := b.Done()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var branch *Instr
	for i := range m.Instrs {
		if m.Instrs[i].Op == OpIfEq {
			branch = &m.Instrs[i]
		}
	}
	if branch == nil {
		t.Fatal("no OpIfEq emitted")
	}
	if m.Instrs[branch.Target].Op != OpReturn {
		t.Fatalf("branch target op = %v, want return", m.Instrs[branch.Target].Op)
	}
}

func TestDoneAppendsImplicitReturn(t *testing.T) {
	p := NewProgram("t")
	c := p.AddClass(&Class{Name: "t.C"})
	b := NewMethod(c, "noop", true, nil, "void")
	m := b.Done()
	if len(m.Instrs) != 1 || m.Instrs[0].Op != OpReturn {
		t.Fatalf("implicit return missing: %v", m.Instrs)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsBadRegister(t *testing.T) {
	p := NewProgram("t")
	c := p.AddClass(&Class{Name: "t.C"})
	m := c.AddMethod(&Method{Name: "bad", Static: true, Return: "void", Registers: 1})
	m.Instrs = []Instr{
		{Op: OpMove, Dst: 0, A: 5, B: NoReg, Target: -1},
		{Op: OpReturn, Dst: NoReg, A: NoReg, B: NoReg, Target: -1},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range register")
	}
}

// A method ref carries no signature, so a class declaring one name twice
// would give two bodies one ref. Validate must name the class and the
// method, on the small-class table, the larger one and the map fallback.
func TestValidateRejectsDuplicateMethod(t *testing.T) {
	for _, n := range []int{2, 600, 1500} {
		p := NewProgram("t")
		c := p.AddClass(&Class{Name: "t.C"})
		for i := 0; i < n-1; i++ {
			NewMethod(c, fmt.Sprintf("m%d", i), true, nil, "void").Done()
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%d methods, all distinct: Validate = %v", n-1, err)
		}
		NewMethod(c, fmt.Sprintf("m%d", (n-1)/2), true, nil, "void").Done()
		want := fmt.Sprintf("class t.C: method m%d is declared more than once", (n-1)/2)
		if err := p.Validate(); err == nil || err.Error() != want {
			t.Fatalf("%d methods: Validate = %v, want %q", n, err, want)
		}
	}
}

func TestValidateRejectsBadBranchTarget(t *testing.T) {
	p := NewProgram("t")
	c := p.AddClass(&Class{Name: "t.C"})
	m := c.AddMethod(&Method{Name: "bad", Static: true, Return: "void", Registers: 1})
	m.Instrs = []Instr{
		{Op: OpGoto, Dst: NoReg, A: NoReg, B: NoReg, Target: 9},
		{Op: OpReturn, Dst: NoReg, A: NoReg, B: NoReg, Target: -1},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range branch target")
	}
}

func TestValidateRejectsFallOffEnd(t *testing.T) {
	p := NewProgram("t")
	c := p.AddClass(&Class{Name: "t.C"})
	m := c.AddMethod(&Method{Name: "bad", Static: true, Return: "void", Registers: 1})
	m.Instrs = []Instr{{Op: OpConstInt, Dst: 0, A: NoReg, B: NoReg, Target: -1}}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted method falling off the end")
	}
}

func TestValidateRejectsMissingEntryPoint(t *testing.T) {
	p := NewProgram("t")
	p.Manifest.EntryPoints = []EntryPoint{{Method: "t.C.onCreate", Kind: EventCreate}}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted dangling entry point")
	}
}

func TestResolveMethodWalksSuperChain(t *testing.T) {
	p := NewProgram("t")
	base := p.AddClass(&Class{Name: "t.Base"})
	bb := NewMethod(base, "run", false, nil, "void")
	bb.ReturnVoid()
	bb.Done()
	p.AddClass(&Class{Name: "t.Mid", Super: "t.Base"})
	p.AddClass(&Class{Name: "t.Leaf", Super: "t.Mid"})

	m := p.ResolveMethod("t.Leaf", "run")
	if m == nil || m.Class.Name != "t.Base" {
		t.Fatalf("ResolveMethod = %v, want t.Base.run", m)
	}
	if p.ResolveMethod("t.Leaf", "nope") != nil {
		t.Fatal("resolved nonexistent method")
	}
}

func TestSubclassesAndImplementers(t *testing.T) {
	p := NewProgram("t")
	p.AddClass(&Class{Name: "t.Base"})
	p.AddClass(&Class{Name: "t.A", Super: "t.Base", Interfaces: []string{"t.Runnable"}})
	p.AddClass(&Class{Name: "t.B", Super: "t.A"})
	x := NewIndex(p)
	subs := x.Subclasses("t.Base")
	if len(subs) != 2 || subs[0] != "t.A" || subs[1] != "t.B" {
		t.Fatalf("Subclasses = %v", subs)
	}
	impls := x.Implementers("t.Runnable")
	if len(impls) != 2 || impls[0] != "t.A" || impls[1] != "t.B" {
		t.Fatalf("Implementers = %v", impls)
	}
}

func TestValidateRejectsSuperclassCycle(t *testing.T) {
	cases := map[string][]*Class{
		"A->B->A": {{Name: "t.A", Super: "t.B"}, {Name: "t.B", Super: "t.A"}},
		"A->A":    {{Name: "t.A", Super: "t.A"}},
		"C->A->B->A": {{Name: "t.C", Super: "t.A"},
			{Name: "t.A", Super: "t.B"}, {Name: "t.B", Super: "t.A"}},
	}
	for name, classes := range cases {
		p := NewProgram("t")
		for _, c := range classes {
			p.AddClass(c)
		}
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), "class "+classes[0].Name+": superclass chain is cyclic") {
			t.Errorf("%s: Validate = %v, want a cyclic-chain error naming %s", name, err, classes[0].Name)
		}
		// The hierarchy tables bound their chain walks, so indexing an
		// unvalidated cyclic program still terminates.
		NewIndex(p)
	}

	p := NewProgram("t")
	p.AddClass(&Class{Name: "t.A", Super: "t.B"})
	p.AddClass(&Class{Name: "t.B", Super: "t.Outside"})
	if err := p.Validate(); err != nil {
		t.Errorf("acyclic chain leaving the program: Validate = %v", err)
	}
}

func TestSplitRef(t *testing.T) {
	tests := []struct {
		ref, cls, member string
		ok               bool
	}{
		{"a.b.C.m", "a.b.C", "m", true},
		{"C.m", "C", "m", true},
		{"nodots", "", "", false},
	}
	for _, tt := range tests {
		cls, member, ok := SplitRef(tt.ref)
		if cls != tt.cls || member != tt.member || ok != tt.ok {
			t.Errorf("SplitRef(%q) = %q,%q,%v", tt.ref, cls, member, ok)
		}
	}
}

// usesOf collects the registers EachUse reports, in order.
func usesOf(in *Instr) []int {
	var out []int
	in.EachUse(func(reg int) { out = append(out, reg) })
	return out
}

func TestUsesAndDef(t *testing.T) {
	tests := []struct {
		name string
		in   Instr
		uses []int
		def  int
	}{
		{"const", Instr{Op: OpConstStr, Dst: 3, A: NoReg, B: NoReg}, nil, 3},
		{"move", Instr{Op: OpMove, Dst: 1, A: 2, B: NoReg}, []int{2}, 1},
		{"fput", Instr{Op: OpFieldPut, Dst: NoReg, A: 1, B: 2}, []int{1, 2}, NoReg},
		{"invoke", Instr{Op: OpInvoke, Dst: 0, Args: []int{1, 2}}, []int{1, 2}, 0},
		{"returnvoid", Instr{Op: OpReturn, Dst: NoReg, A: NoReg, B: NoReg}, nil, NoReg},
		{"return", Instr{Op: OpReturn, Dst: NoReg, A: 7, B: NoReg}, []int{7}, NoReg},
		{"ifeq", Instr{Op: OpIfEq, Dst: NoReg, A: 1, B: 2}, []int{1, 2}, NoReg},
	}
	for _, tt := range tests {
		uses := usesOf(&tt.in)
		if len(uses) != len(tt.uses) {
			t.Errorf("%s: EachUse = %v, want %v", tt.name, uses, tt.uses)
			continue
		}
		for i := range uses {
			if uses[i] != tt.uses[i] {
				t.Errorf("%s: EachUse = %v, want %v", tt.name, uses, tt.uses)
			}
		}
		if d := tt.in.Def(); d != tt.def {
			t.Errorf("%s: Def = %d, want %d", tt.name, d, tt.def)
		}
	}
}

func TestInstrStringIsStable(t *testing.T) {
	_, m := buildSample()
	s := m.String()
	for _, want := range []string{"invoke-virtual", "const-str", `"hello "`, "StringBuilder.append"} {
		if !strings.Contains(s, want) {
			t.Errorf("method text missing %q:\n%s", want, s)
		}
	}
}

// Property: for every opcode, EachUse never reports NoReg and Def is either
// NoReg or a real register value copied from the instruction.
func TestUsesNeverContainNoReg(t *testing.T) {
	f := func(op uint8, dst, a, b int8, args []int8) bool {
		in := Instr{
			Op:  Op(op % 18),
			Dst: int(dst), A: int(a), B: int(b),
		}
		for _, x := range args {
			in.Args = append(in.Args, int(x))
		}
		// Normalize negatives other than NoReg to NoReg, as authored code does.
		norm := func(r int) int {
			if r < 0 {
				return NoReg
			}
			return r
		}
		in.Dst, in.A, in.B = norm(in.Dst), norm(in.A), norm(in.B)
		for i := range in.Args {
			in.Args[i] = norm(in.Args[i])
		}
		for _, u := range usesOf(&in) {
			if u == NoReg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppClassesSkipsLibrary(t *testing.T) {
	p := NewProgram("t")
	p.AddClass(&Class{Name: "java.lang.String", Library: true})
	p.AddClass(&Class{Name: "t.Main"})
	app := p.AppClasses()
	if len(app) != 1 || app[0].Name != "t.Main" {
		t.Fatalf("AppClasses = %v", app)
	}
	if len(p.Classes()) != 2 {
		t.Fatalf("Classes = %d, want 2", len(p.Classes()))
	}
}

func TestAddClassReplacesByName(t *testing.T) {
	p := NewProgram("t")
	p.AddClass(&Class{Name: "t.C", Super: "old"})
	p.AddClass(&Class{Name: "t.C", Super: "new"})
	if got := p.Class("t.C").Super; got != "new" {
		t.Fatalf("Super = %q, want new", got)
	}
	if n := len(p.Classes()); n != 1 {
		t.Fatalf("classes = %d, want 1", n)
	}
}

func TestDisassembleContainsStructure(t *testing.T) {
	p, _ := buildSample()
	p.Manifest.AppName = "Sample"
	p.Resources["key"] = "value"
	p.Manifest.EntryPoints = []EntryPoint{{Method: "com.example.sample.Main.greet", Kind: EventClick}}
	out := p.Disassemble()
	for _, want := range []string{
		"package com.example.sample (Sample)",
		"entry com.example.sample.Main.greet [click]",
		`resource key = "value"`,
		"class com.example.sample.Main",
		"invoke-virtual",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}
