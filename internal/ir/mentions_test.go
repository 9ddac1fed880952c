package ir_test

import (
	"slices"
	"testing"

	"extractocol/internal/corpus"
	"extractocol/internal/ir"
)

// mentionsWalk is the reference Index.Mentions is checked against: the
// ascending instructions of m whose Def is reg or whose EachUse reports
// reg, each once.
func mentionsWalk(m *ir.Method, reg int) []int32 {
	var out []int32
	for i := range m.Instrs {
		in := &m.Instrs[i]
		hit := in.Def() == reg
		in.EachUse(func(u int) {
			if u == reg {
				hit = true
			}
		})
		if hit {
			out = append(out, int32(i))
		}
	}
	return out
}

// checkMentions requires every register of every method of p to list
// exactly the instructions the walk finds, and returns how many mentions
// it compared.
func checkMentions(t *testing.T, name string, p *ir.Program) int {
	t.Helper()
	x := ir.NewIndex(p)
	n := 0
	for id := uint32(0); id < uint32(x.NumMethods()); id++ {
		m := x.MethodAt(id)
		for reg := 0; reg < m.Registers; reg++ {
			got, want := x.Mentions(id, reg), mentionsWalk(m, reg)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s r%d mentions = %v, walk = %v", name, m.Ref(), reg, got, want)
			}
			n += len(got)
		}
		if x.Mentions(id, -1) != nil || x.Mentions(id, m.Registers) != nil {
			t.Fatalf("%s: %s lists mentions of a register it does not declare", name, m.Ref())
		}
	}
	return n
}

// mentionShapes is one method holding the instruction shapes that name a
// register more than once: binop r, r; move r, r; an invoke passing one
// register twice and defining another it also passes; a field put of a
// register into itself.
func mentionShapes() *ir.Program {
	p := ir.NewProgram("t.m")
	c := p.AddClass(&ir.Class{Name: "t.m.C"})
	m := c.AddMethod(&ir.Method{Name: "shapes", Static: true, Return: "void", Registers: 3})
	no := ir.NoReg
	m.Instrs = []ir.Instr{
		{Op: ir.OpConstInt, Dst: 0, A: no, B: no, Int: 1, Target: -1},
		{Op: ir.OpBinop, Dst: 1, A: 0, B: 0, Sym: "+", Target: -1},
		{Op: ir.OpMove, Dst: 1, A: 1, B: no, Target: -1},
		{Op: ir.OpInvoke, Dst: 2, A: no, B: no, Args: []int{1, 1, 0}, Sym: "t.m.C.f", Kind: ir.InvokeStatic, Target: -1},
		{Op: ir.OpInvoke, Dst: 0, A: no, B: no, Args: []int{0, 2}, Sym: "t.m.C.g", Kind: ir.InvokeStatic, Target: -1},
		{Op: ir.OpFieldPut, Dst: no, A: 2, B: 2, Sym: "x", Target: -1},
		{Op: ir.OpReturn, Dst: no, A: no, B: no, Target: -1},
	}
	return p
}

// TestMentionsMatchInstrWalk holds the per-register mention lists to a
// per-instruction walk. The taint scans visit only the mentioned
// instructions, which is exact because an instruction that neither defines
// nor uses a register emits no effect for it in either direction.
func TestMentionsMatchInstrWalk(t *testing.T) {
	t.Run("shapes", func(t *testing.T) {
		p := mentionShapes()
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		checkMentions(t, "shapes", p)
		x := ir.NewIndex(p)
		for reg, want := range [][]int32{{0, 1, 3, 4}, {1, 2, 3}, {3, 4, 5}} {
			if got := x.Mentions(0, reg); !slices.Equal(got, want) {
				t.Errorf("r%d mentions = %v, want %v", reg, got, want)
			}
		}
	})
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	n := 0
	for _, app := range append(corpus.Apps(), corpus.Rand(1729, 100)...) {
		n += checkMentions(t, app.Spec.Name, app.Prog)
	}
	if n < 10000 {
		t.Fatalf("only %d mentions compared; the sweep lost its coverage", n)
	}
}

// Validate runs twice per cold analysis (dex.Decode and core.Analyze), so
// it must not allocate on a valid program: Pinterest, the largest Table 1
// app, with a 480-method class.
func TestValidateAllocs(t *testing.T) {
	app, err := corpus.ByName("Pinterest")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := app.Prog.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Validate allocated %.1f times on Pinterest, want 0", allocs)
	}
}
