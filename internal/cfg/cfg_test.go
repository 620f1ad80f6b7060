package cfg

import (
	"testing"

	"spear/internal/asm"
	"spear/internal/prog"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	p, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	g, err := Build(p)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return g
}

const simpleLoop = `
main:   li r1, 0
        li r2, 10
loop:   addi r1, r1, 1
        blt r1, r2, loop
        halt
`

func TestBlocksSimpleLoop(t *testing.T) {
	g := build(t, simpleLoop)
	// Blocks: [0,1] prologue, [2,3] loop body, [4,4] halt.
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(g.Blocks))
	}
	if g.Blocks[0].Start != 0 || g.Blocks[0].End != 1 {
		t.Errorf("block 0 = [%d,%d]", g.Blocks[0].Start, g.Blocks[0].End)
	}
	if g.Blocks[1].Start != 2 || g.Blocks[1].End != 3 {
		t.Errorf("block 1 = [%d,%d]", g.Blocks[1].Start, g.Blocks[1].End)
	}
	// Edges: 0->1, 1->1, 1->2.
	if len(g.Blocks[1].Succs) != 2 {
		t.Errorf("loop block succs = %v", g.Blocks[1].Succs)
	}
	hasSelf := false
	for _, s := range g.Blocks[1].Succs {
		if s == 1 {
			hasSelf = true
		}
	}
	if !hasSelf {
		t.Error("loop back edge missing")
	}
}

func TestLoopDetectionSimple(t *testing.T) {
	g := build(t, simpleLoop)
	if len(g.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(g.Loops))
	}
	l := g.Loops[0]
	if l.Header != 1 || l.Depth != 1 || l.Parent != -1 {
		t.Errorf("loop = %+v", l)
	}
	if g.InnermostLoopAt(2) != 0 {
		t.Error("instr 2 not in loop")
	}
	if g.InnermostLoopAt(0) != -1 {
		t.Error("prologue claimed by loop")
	}
	lo, hi := g.LoopInstrRange(0)
	if lo != 2 || hi != 3 {
		t.Errorf("loop range = [%d,%d], want [2,3]", lo, hi)
	}
}

const nestedLoops = `
main:   li r1, 0          # i
outer:  li r2, 0          # j
inner:  addi r2, r2, 1
        slti r3, r2, 8
        bnez r3, inner
        addi r1, r1, 1
        slti r3, r1, 4
        bnez r3, outer
        halt
`

func TestNestedLoops(t *testing.T) {
	g := build(t, nestedLoops)
	if len(g.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(g.Loops))
	}
	var inner, outer *Loop
	for i := range g.Loops {
		switch g.Loops[i].Depth {
		case 1:
			outer = &g.Loops[i]
		case 2:
			inner = &g.Loops[i]
		}
	}
	if inner == nil || outer == nil {
		t.Fatalf("depths wrong: %+v", g.Loops)
	}
	if inner.Parent != outer.ID {
		t.Errorf("inner.Parent = %d, want %d", inner.Parent, outer.ID)
	}
	if !outer.Blocks[inner.Header] {
		t.Error("outer loop does not contain inner header")
	}
	// The innermost loop at the inner body must be the depth-2 loop.
	innerBody := g.Prog.Labels["inner"]
	if g.InnermostLoopAt(innerBody) != inner.ID {
		t.Errorf("InnermostLoopAt(inner) = %d", g.InnermostLoopAt(innerBody))
	}
}

const diamond = `
main:   li r1, 1
        beqz r1, left
        addi r2, r0, 2
        j join
left:   addi r2, r0, 3
join:   add r3, r2, r2
        halt
`

func TestDominatorsDiamond(t *testing.T) {
	g := build(t, diamond)
	entry := g.BlockOf[0]
	join := g.BlockOf[g.Prog.Labels["join"]]
	left := g.BlockOf[g.Prog.Labels["left"]]
	right := g.BlockOf[2]
	if !g.Dominates(entry, join) {
		t.Error("entry should dominate join")
	}
	if g.Dominates(left, join) || g.Dominates(right, join) {
		t.Error("neither arm dominates join")
	}
	if g.Idom[join] != entry {
		t.Errorf("idom(join) = %d, want %d", g.Idom[join], entry)
	}
}

const withCall = `
main:   li r4, 5
        call f
loop:   addi r4, r4, -1
        bnez r4, loop
        halt
f:      add r2, r4, r4
        ret
`

func TestFunctionsAndCallFallthrough(t *testing.T) {
	g := build(t, withCall)
	fEntry := g.BlockOf[g.Prog.Labels["f"]]
	mEntry := g.BlockOf[0]
	if g.FuncOf[fEntry] != fEntry {
		t.Error("f is not its own function entry")
	}
	if g.FuncOf[mEntry] != mEntry {
		t.Error("main is not its own function entry")
	}
	if g.FuncOf[fEntry] == g.FuncOf[mEntry] {
		t.Error("f and main reported same function")
	}
	if g.FuncOf[g.BlockOf[g.Prog.Labels["loop"]]] != g.FuncOf[mEntry] {
		t.Error("loop and main entry reported different functions")
	}
	// The loop after the call must still be detected (call falls through).
	if len(g.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(g.Loops))
	}
	if g.InnermostLoopAt(g.Prog.Labels["loop"]) != 0 {
		t.Error("loop after call not detected")
	}
}

func TestBlockOfCoversAllInstructions(t *testing.T) {
	g := build(t, nestedLoops)
	for pc := range g.Prog.Text {
		b := g.BlockOf[pc]
		if pc < g.Blocks[b].Start || pc > g.Blocks[b].End {
			t.Fatalf("BlockOf(%d) = %d with range [%d,%d]", pc, b, g.Blocks[b].Start, g.Blocks[b].End)
		}
	}
}

func TestPredsMatchSuccs(t *testing.T) {
	for _, src := range []string{simpleLoop, nestedLoops, diamond, withCall} {
		g := build(t, src)
		for b := range g.Blocks {
			for _, s := range g.Blocks[b].Succs {
				found := false
				for _, p := range g.Blocks[s].Preds {
					if p == b {
						found = true
					}
				}
				if !found {
					t.Fatalf("edge %d->%d missing from preds", b, s)
				}
			}
		}
	}
}

func TestBuildEmptyProgram(t *testing.T) {
	if _, err := Build(&prog.Program{Name: "x"}); err == nil {
		t.Error("Build accepted empty program")
	}
}

func TestFigure5aShape(t *testing.T) {
	// The paper's Figure 5-(a): B1 -> {B2, B3} -> B4 with the d-load in
	// B4 — both arms merge before the load.
	g := build(t, `
main:   li r1, 7
b1:     addi r9, r9, 1
        beqz r1, b3
b2:     addi r2, r2, 8
        j b4
b3:     addi r2, r2, 16
b4:     ld r5, 0(r2)
        addi r9, r9, 1
        bnez r9, b1
        halt
`)
	b1 := g.BlockOf[g.Prog.Labels["b1"]]
	b4 := g.BlockOf[g.Prog.Labels["b4"]]
	if !g.Dominates(b1, b4) {
		t.Error("B1 must dominate B4")
	}
	if len(g.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(g.Loops))
	}
	if !g.Loops[0].Blocks[g.BlockOf[g.Prog.Labels["b2"]]] || !g.Loops[0].Blocks[g.BlockOf[g.Prog.Labels["b3"]]] {
		t.Error("loop should contain both diamond arms")
	}
}
