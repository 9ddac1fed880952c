// Package cfg builds intra-procedural control flow graphs over ir.Method
// bodies and derives the graph facts the rest of the pipeline needs:
// reverse post-order (the topological visiting order used by the
// flow-sensitive signature builder), dominators, and natural loops (whose
// headers and latches mark where signatures must widen to repetition).
package cfg

import (
	"fmt"
	"sort"

	"extractocol/internal/ir"
)

// Block is a maximal straight-line sequence of instructions. Start and End
// are instruction indices into the method body; End is exclusive.
type Block struct {
	ID         int
	Start, End int
	Succs      []int // successor block IDs
	Preds      []int // predecessor block IDs
}

// Graph is the control flow graph of one method.
type Graph struct {
	Method *ir.Method
	Blocks []*Block
	// blockOf maps each instruction index to its containing block ID.
	blockOf []int
}

// Build constructs the CFG for m. Methods with empty bodies (library stubs)
// yield a graph with no blocks.
func Build(m *ir.Method) *Graph {
	g := &Graph{Method: m}
	n := len(m.Instrs)
	if n == 0 {
		return g
	}

	leader := make([]bool, n)
	leader[0] = true
	for i := range m.Instrs {
		in := &m.Instrs[i]
		if in.IsBranch() {
			leader[in.Target] = true
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if in.Op == ir.OpReturn && i+1 < n {
			leader[i+1] = true
		}
	}

	g.blockOf = make([]int, n)
	for i := 0; i < n; {
		b := &Block{ID: len(g.Blocks), Start: i}
		i++
		for i < n && !leader[i] {
			i++
		}
		b.End = i
		for j := b.Start; j < b.End; j++ {
			g.blockOf[j] = b.ID
		}
		g.Blocks = append(g.Blocks, b)
	}

	addEdge := func(from, to int) {
		fb, tb := g.Blocks[from], g.Blocks[to]
		for _, s := range fb.Succs {
			if s == tb.ID {
				return
			}
		}
		fb.Succs = append(fb.Succs, tb.ID)
		tb.Preds = append(tb.Preds, fb.ID)
	}
	for _, b := range g.Blocks {
		last := &m.Instrs[b.End-1]
		switch {
		case last.Op == ir.OpGoto:
			addEdge(b.ID, g.blockOf[last.Target])
		case last.IsConditional():
			addEdge(b.ID, g.blockOf[last.Target])
			if b.End < n {
				addEdge(b.ID, g.blockOf[b.End])
			}
		case last.Op == ir.OpReturn:
			// no successors
		default:
			if b.End < n {
				addEdge(b.ID, g.blockOf[b.End])
			}
		}
	}
	return g
}

// ReversePostOrder returns block IDs in reverse post-order of a depth-first
// search from the entry: every block appears before its successors except
// along back edges. Unreachable blocks are appended at the end in ID order
// so callers still visit every instruction.
func (g *Graph) ReversePostOrder() []int {
	if len(g.Blocks) == 0 {
		return nil
	}
	seen := make([]bool, len(g.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	out := make([]int, 0, len(g.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for i := range g.Blocks {
		if !seen[i] {
			out = append(out, i)
		}
	}
	return out
}

// Dominators returns idom, where idom[b] is the immediate dominator of
// block b (idom[entry] == entry). Unreachable blocks get idom -1.
// This is the classic Cooper–Harvey–Kennedy iterative algorithm.
func (g *Graph) Dominators() []int {
	n := len(g.Blocks)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	if n == 0 {
		return idom
	}
	rpo := g.ReversePostOrder()
	order := make([]int, n) // block ID -> RPO index
	for i, b := range rpo {
		order[b] = i
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b under idom.
func Dominates(idom []int, a, b int) bool {
	if idom[b] == -1 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == idom[b] { // reached entry
			return a == b
		}
		b = idom[b]
	}
}

// Loop is a natural loop: a back edge Latch→Header plus the loop body.
type Loop struct {
	Header int
	Latch  int
	Body   map[int]bool // block IDs, including header and latch
}

// Loops finds all natural loops via back-edge detection (an edge b→h where
// h dominates b). Loops sharing a header are reported separately.
func (g *Graph) Loops() []Loop {
	idom := g.Dominators()
	var loops []Loop
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if Dominates(idom, s, b.ID) {
				loops = append(loops, g.naturalLoop(s, b.ID))
			}
		}
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Header != loops[j].Header {
			return loops[i].Header < loops[j].Header
		}
		return loops[i].Latch < loops[j].Latch
	})
	return loops
}

func (g *Graph) naturalLoop(header, latch int) Loop {
	body := map[int]bool{header: true, latch: true}
	stack := []int{latch}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == header {
			continue
		}
		for _, p := range g.Blocks[b].Preds {
			if !body[p] {
				body[p] = true
				stack = append(stack, p)
			}
		}
	}
	return Loop{Header: header, Latch: latch, Body: body}
}

// Plan is what a flow-sensitive walk over one method body reads: its
// blocks, their reverse post-order and each block's loop header. It
// depends only on the method, so it is built once per program and shared
// read-only.
type Plan struct {
	Blocks []*Block
	RPO    []int
	// LoopOf maps a block ID to the header of the last loop, in Loops
	// order, whose body holds it (the innermost), or -1 outside loops.
	LoopOf []int
}

// NewPlan builds m's CFG and derives its plan.
func NewPlan(m *ir.Method) *Plan {
	g := Build(m)
	loopOf := make([]int, len(g.Blocks))
	for i := range loopOf {
		loopOf[i] = -1
	}
	for _, l := range g.Loops() {
		for b := range l.Body {
			loopOf[b] = l.Header
		}
	}
	return &Plan{Blocks: g.Blocks, RPO: g.ReversePostOrder(), LoopOf: loopOf}
}

// String renders the graph compactly for debugging.
func (g *Graph) String() string {
	s := ""
	for _, b := range g.Blocks {
		s += fmt.Sprintf("B%d [%d,%d) -> %v\n", b.ID, b.Start, b.End, b.Succs)
	}
	return s
}
