package cfg

import (
	"testing"
	"testing/quick"

	"extractocol/internal/ir"
)

// diamond builds:
//
//	if p0 == 0 goto else
//	  r = "a"
//	  goto end
//	else: r = "b"
//	end: return r
func diamond(t *testing.T) *ir.Method {
	t.Helper()
	p := ir.NewProgram("t")
	c := p.AddClass(&ir.Class{Name: "t.C"})
	b := ir.NewMethod(c, "m", true, []string{"int"}, "java.lang.String")
	cond := b.Param(0)
	out := b.Reg()
	b.IfZ(cond, "else")
	a := b.ConstStr("a")
	b.MoveTo(out, a)
	b.Goto("end")
	b.Label("else")
	bb := b.ConstStr("b")
	b.MoveTo(out, bb)
	b.Label("end")
	b.Return(out)
	return b.Done()
}

func loopMethod(t *testing.T) *ir.Method {
	t.Helper()
	p := ir.NewProgram("t")
	c := p.AddClass(&ir.Class{Name: "t.C"})
	b := ir.NewMethod(c, "loop", true, []string{"int"}, "int")
	i := b.Param(0)
	b.Label("head")
	b.IfZ(i, "exit")
	one := b.ConstInt(1)
	dec := b.Binop("-", i, one)
	b.MoveTo(i, dec)
	b.Goto("head")
	b.Label("exit")
	b.Return(i)
	return b.Done()
}

func TestDiamondStructure(t *testing.T) {
	g := Build(diamond(t))
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4\n%s", len(g.Blocks), g)
	}
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %v, want 2", entry.Succs)
	}
	// The final block must have two predecessors (join point).
	last := g.Blocks[len(g.Blocks)-1]
	if len(last.Preds) != 2 {
		t.Fatalf("join preds = %v, want 2", last.Preds)
	}
}

func TestReversePostOrderVisitsPredecessorsFirst(t *testing.T) {
	g := Build(diamond(t))
	rpo := g.ReversePostOrder()
	pos := map[int]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	if len(rpo) != len(g.Blocks) {
		t.Fatalf("rpo covers %d of %d blocks", len(rpo), len(g.Blocks))
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			// No back edges in a diamond: preds come first.
			if pos[b.ID] >= pos[s] {
				t.Errorf("block %d not before successor %d in %v", b.ID, s, rpo)
			}
		}
	}
}

func TestDominatorsDiamond(t *testing.T) {
	g := Build(diamond(t))
	idom := g.Dominators()
	if idom[0] != 0 {
		t.Fatalf("entry idom = %d", idom[0])
	}
	join := len(g.Blocks) - 1
	if idom[join] != 0 {
		t.Fatalf("join idom = %d, want 0 (entry)", idom[join])
	}
	if !Dominates(idom, 0, join) {
		t.Fatal("entry should dominate join")
	}
	if Dominates(idom, 1, join) {
		t.Fatal("then-branch must not dominate join")
	}
}

func TestLoopDetection(t *testing.T) {
	g := Build(loopMethod(t))
	loops := g.Loops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1\n%s", len(loops), g)
	}
	l := loops[0]
	if !l.Body[l.Header] || !l.Body[l.Latch] {
		t.Fatal("loop body must contain header and latch")
	}
}

func TestNoLoopsInDiamond(t *testing.T) {
	g := Build(diamond(t))
	if loops := g.Loops(); len(loops) != 0 {
		t.Fatalf("diamond reported loops: %v", loops)
	}
}

func TestEmptyMethod(t *testing.T) {
	m := &ir.Method{Name: "stub", Class: &ir.Class{Name: "t.C"}}
	g := Build(m)
	if len(g.Blocks) != 0 || len(g.ReversePostOrder()) != 0 {
		t.Fatal("empty method should yield empty graph")
	}
}

func TestStraightLineSingleBlock(t *testing.T) {
	p := ir.NewProgram("t")
	c := p.AddClass(&ir.Class{Name: "t.C"})
	b := ir.NewMethod(c, "s", true, nil, "void")
	b.ConstStr("x")
	b.ConstStr("y")
	b.ReturnVoid()
	g := Build(b.Done())
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
	if len(g.Blocks[0].Succs) != 0 {
		t.Fatalf("straight-line block has succs %v", g.Blocks[0].Succs)
	}
}

func TestBlockOf(t *testing.T) {
	m := diamond(t)
	g := Build(m)
	for i := range m.Instrs {
		b := g.Blocks[g.blockOf[i]]
		if i < b.Start || i >= b.End {
			t.Fatalf("instr %d mapped to block [%d,%d)", i, b.Start, b.End)
		}
	}
}

func TestUnreachableBlockStillInRPO(t *testing.T) {
	p := ir.NewProgram("t")
	c := p.AddClass(&ir.Class{Name: "t.C"})
	m := c.AddMethod(&ir.Method{Name: "u", Static: true, Return: "void", Registers: 1})
	m.Instrs = []ir.Instr{
		{Op: ir.OpReturn, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, Target: -1},
		{Op: ir.OpConstInt, Dst: 0, A: ir.NoReg, B: ir.NoReg, Target: -1}, // dead
		{Op: ir.OpReturn, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, Target: -1},
	}
	g := Build(m)
	rpo := g.ReversePostOrder()
	if len(rpo) != len(g.Blocks) {
		t.Fatalf("rpo %v misses unreachable blocks (have %d)", rpo, len(g.Blocks))
	}
}

// Property: for random branchy-but-valid methods, the reverse post-order
// covers every block exactly once, and the entry dominates every reachable
// block.
func TestCFGPropertiesOnRandomPrograms(t *testing.T) {
	build := func(branches []uint8, seed uint8) *ir.Method {
		p := ir.NewProgram("q")
		c := p.AddClass(&ir.Class{Name: "q.C"})
		b := ir.NewMethod(c, "m", true, []string{"int"}, "void")
		x := b.Param(0)
		// Emit a chain of labeled segments with random forward branches.
		n := len(branches)%6 + 2
		for i := 0; i < n; i++ {
			b.Label(lbl(i))
			b.ConstInt(int64(i))
			if i+1 < n && len(branches) > i && branches[i]%2 == 0 {
				// Conditional jump over the next segment.
				target := i + 2
				if target >= n {
					target = n - 1
				}
				b.IfZ(x, lbl(target))
			}
		}
		b.Label(lbl(n))
		b.ReturnVoid()
		return b.Done()
	}
	f := func(branches []uint8, seed uint8) bool {
		m := build(branches, seed)
		g := Build(m)
		rpo := g.ReversePostOrder()
		if len(rpo) != len(g.Blocks) {
			return false
		}
		seen := map[int]bool{}
		for _, b := range rpo {
			if seen[b] {
				return false
			}
			seen[b] = true
		}
		idom := g.Dominators()
		for _, b := range g.Blocks {
			if idom[b.ID] == -1 {
				continue // unreachable
			}
			if !Dominates(idom, 0, b.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func lbl(i int) string { return "L" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }
