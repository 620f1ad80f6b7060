// Package cfg builds the control-flow graph of a SPISA binary and derives
// the structures the SPEAR compiler needs: basic blocks, dominators,
// natural loops with their nesting, and function partitioning. This is the
// "CFG drawing tool" (module ① of Figure 4 in the paper).
package cfg

import (
	"fmt"
	"sort"

	"spear/internal/isa"
	"spear/internal/prog"
)

// Block is one basic block, identified by its index in Graph.Blocks.
// Instructions [Start, End] (inclusive) belong to the block.
type Block struct {
	ID    int
	Start int
	End   int
	Succs []int // successor block IDs (intra-procedural; calls fall through)
	Preds []int
}

// Len returns the number of instructions in the block.
func (b Block) Len() int { return b.End - b.Start + 1 }

// Loop is a natural loop discovered from a back edge.
type Loop struct {
	ID     int
	Header int          // header block ID
	Blocks map[int]bool // member block IDs (includes header)
	Parent int          // enclosing loop ID, or -1
	Depth  int          // 1 for outermost
}

// Graph is the control-flow graph of one program.
type Graph struct {
	Prog    *prog.Program
	Blocks  []Block
	BlockOf []int // instruction index -> block ID

	// Funcs maps a function entry block ID to every block reachable from
	// it without following call edges; FuncOf gives each block's owning
	// function entry (the first one to reach it).
	Funcs  map[int][]int
	FuncOf []int

	// Loops are the natural loops; LoopOf maps a block to its innermost
	// loop ID, or -1.
	Loops  []Loop
	LoopOf []int

	// Idom is the immediate dominator of each block (-1 for entry and
	// unreachable blocks).
	Idom []int
}

// Build constructs the CFG, dominator tree, loops, and functions.
func Build(p *prog.Program) (*Graph, error) {
	n := len(p.Text)
	if n == 0 {
		return nil, fmt.Errorf("cfg: empty program")
	}

	// Pass 1: leaders. The entry, every control-transfer target, and
	// every instruction after a control transfer start a block.
	leader := make([]bool, n)
	leader[p.Entry] = true
	leader[0] = true
	for i, in := range p.Text {
		if in.Op.IsControl() || in.Op == isa.HALT {
			if i+1 < n {
				leader[i+1] = true
			}
			if in.Op.IsBranch() || in.Op == isa.J || in.Op == isa.JAL {
				leader[in.Imm] = true
			}
		}
	}

	g := &Graph{Prog: p, BlockOf: make([]int, n)}
	for i := 0; i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		id := len(g.Blocks)
		g.Blocks = append(g.Blocks, Block{ID: id, Start: i, End: j - 1})
		for k := i; k < j; k++ {
			g.BlockOf[k] = id
		}
		i = j
	}

	// Pass 2: edges. Calls (JAL/JALR) fall through to the return point so
	// that loop analysis stays intra-procedural; JR ends a block with no
	// static successors (returns leave the function).
	addEdge := func(from, to int) {
		b := &g.Blocks[from]
		for _, s := range b.Succs {
			if s == to {
				return
			}
		}
		b.Succs = append(b.Succs, to)
		g.Blocks[to].Preds = append(g.Blocks[to].Preds, from)
	}
	for id := range g.Blocks {
		b := g.Blocks[id]
		last := p.Text[b.End]
		switch {
		case last.Op == isa.HALT, last.Op == isa.JR, last.Op == isa.JALR:
			// no static intra-procedural successor
			if last.Op == isa.JALR && b.End+1 < n {
				addEdge(id, g.BlockOf[b.End+1]) // call returns
			}
		case last.Op == isa.J:
			addEdge(id, g.BlockOf[last.Imm])
		case last.Op == isa.JAL:
			if b.End+1 < n {
				addEdge(id, g.BlockOf[b.End+1]) // call returns
			}
		case last.Op.IsBranch():
			addEdge(id, g.BlockOf[last.Imm])
			if b.End+1 < n {
				addEdge(id, g.BlockOf[b.End+1])
			}
		default:
			if b.End+1 < n {
				addEdge(id, g.BlockOf[b.End+1])
			}
		}
	}

	g.computeFunctions()
	g.computeDominators()
	g.computeLoops()
	return g, nil
}

// computeFunctions partitions blocks into functions: entries are the
// program entry plus every JAL target; membership is reachability without
// crossing call edges.
func (g *Graph) computeFunctions() {
	p := g.Prog
	entries := map[int]bool{g.BlockOf[p.Entry]: true}
	for _, in := range p.Text {
		if in.Op == isa.JAL {
			entries[g.BlockOf[in.Imm]] = true
		}
	}
	g.FuncOf = make([]int, len(g.Blocks))
	for i := range g.FuncOf {
		g.FuncOf[i] = -1
	}
	g.Funcs = make(map[int][]int, len(entries))

	sortedEntries := make([]int, 0, len(entries))
	for e := range entries {
		sortedEntries = append(sortedEntries, e)
	}
	sort.Ints(sortedEntries)
	// The program entry claims blocks first.
	main := g.BlockOf[p.Entry]
	order := append([]int{main}, sortedEntries...)
	for _, e := range order {
		if g.FuncOf[e] != -1 {
			continue
		}
		var members []int
		stack := []int{e}
		g.FuncOf[e] = e
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, b)
			for _, s := range g.Blocks[b].Succs {
				if g.FuncOf[s] == -1 && !entries[s] {
					g.FuncOf[s] = e
					stack = append(stack, s)
				}
			}
		}
		sort.Ints(members)
		g.Funcs[e] = members
	}
}

// computeDominators runs the standard iterative dataflow algorithm in
// reverse post-order from the entry block of each function.
func (g *Graph) computeDominators() {
	n := len(g.Blocks)
	g.Idom = make([]int, n)
	for i := range g.Idom {
		g.Idom[i] = -1
	}
	for entry := range g.Funcs {
		g.dominatorsFrom(entry)
	}
}

func (g *Graph) dominatorsFrom(entry int) {
	// Reverse post-order within the function.
	seen := map[int]bool{entry: true}
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] && g.FuncOf[s] == g.FuncOf[entry] {
				seen[s] = true
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(entry)
	rpo := make([]int, len(post))
	for i, b := range post {
		rpo[len(post)-1-i] = b
	}
	rpoIdx := map[int]int{}
	for i, b := range rpo {
		rpoIdx[b] = i
	}

	g.Idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if _, ok := rpoIdx[p]; !ok {
					continue
				}
				if g.Idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = g.intersect(p, newIdom, rpoIdx)
				}
			}
			if newIdom != -1 && g.Idom[b] != newIdom {
				g.Idom[b] = newIdom
				changed = true
			}
		}
	}
}

func (g *Graph) intersect(a, b int, rpoIdx map[int]int) int {
	for a != b {
		for rpoIdx[a] > rpoIdx[b] {
			a = g.Idom[a]
			if a == -1 {
				return b
			}
		}
		for rpoIdx[b] > rpoIdx[a] {
			b = g.Idom[b]
			if b == -1 {
				return a
			}
		}
	}
	return a
}

// Dominates reports whether block a dominates block b (within a function).
func (g *Graph) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		if g.Idom[b] == b {
			return a == b
		}
		b = g.Idom[b]
	}
	return false
}

// computeLoops finds back edges (tail -> header where header dominates
// tail) and builds each natural loop, then derives nesting.
func (g *Graph) computeLoops() {
	g.LoopOf = make([]int, len(g.Blocks))
	for i := range g.LoopOf {
		g.LoopOf[i] = -1
	}
	type backEdge struct{ tail, header int }
	var edges []backEdge
	for b := range g.Blocks {
		for _, s := range g.Blocks[b].Succs {
			if g.Dominates(s, b) {
				edges = append(edges, backEdge{tail: b, header: s})
			}
		}
	}
	// Merge loops sharing a header.
	byHeader := map[int]*Loop{}
	for _, e := range edges {
		l, ok := byHeader[e.header]
		if !ok {
			l = &Loop{Header: e.header, Blocks: map[int]bool{e.header: true}, Parent: -1}
			byHeader[e.header] = l
		}
		// Natural loop: header + all blocks reaching the tail backwards
		// without passing through the header.
		stack := []int{e.tail}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if l.Blocks[b] {
				continue
			}
			l.Blocks[b] = true
			for _, p := range g.Blocks[b].Preds {
				stack = append(stack, p)
			}
		}
	}
	headers := make([]int, 0, len(byHeader))
	for h := range byHeader {
		headers = append(headers, h)
	}
	sort.Ints(headers)
	for _, h := range headers {
		l := byHeader[h]
		l.ID = len(g.Loops)
		g.Loops = append(g.Loops, *l)
	}
	// Nesting: the parent of loop L is the smallest loop strictly
	// containing L's header (other than L itself).
	for i := range g.Loops {
		best, bestSize := -1, 1<<62
		for j := range g.Loops {
			if i == j {
				continue
			}
			if g.Loops[j].Blocks[g.Loops[i].Header] && len(g.Loops[j].Blocks) > len(g.Loops[i].Blocks) {
				if len(g.Loops[j].Blocks) < bestSize {
					best, bestSize = j, len(g.Loops[j].Blocks)
				}
			}
		}
		g.Loops[i].Parent = best
	}
	for i := range g.Loops {
		d := 1
		for p := g.Loops[i].Parent; p != -1; p = g.Loops[p].Parent {
			d++
		}
		g.Loops[i].Depth = d
	}
	// Innermost loop per block: the deepest loop containing it.
	for b := range g.Blocks {
		best, bestDepth := -1, 0
		for i := range g.Loops {
			if g.Loops[i].Blocks[b] && g.Loops[i].Depth > bestDepth {
				best, bestDepth = i, g.Loops[i].Depth
			}
		}
		g.LoopOf[b] = best
	}
}

// InnermostLoopAt returns the innermost loop containing instruction pc,
// or -1.
func (g *Graph) InnermostLoopAt(pc int) int {
	if pc < 0 || pc >= len(g.BlockOf) {
		return -1
	}
	return g.LoopOf[g.BlockOf[pc]]
}

// LoopInstrRange returns the instruction index span [lo, hi] covered by the
// loop's blocks.
func (g *Graph) LoopInstrRange(loopID int) (lo, hi int) {
	l := g.Loops[loopID]
	lo, hi = 1<<62, -1
	for b := range l.Blocks {
		if g.Blocks[b].Start < lo {
			lo = g.Blocks[b].Start
		}
		if g.Blocks[b].End > hi {
			hi = g.Blocks[b].End
		}
	}
	return lo, hi
}
