package profile

import (
	"spear/internal/emu"
	"spear/internal/isa"
	"spear/internal/mem"
)

// The dependence window of pass2 and its backward chase.
//
// Every d-load miss must count each static edge that a backward walk
// through the last Window retired instructions crosses, once per miss.
// Walked node by node that costs up to Window steps per miss, and most of
// them repeat a recurrence (i = i+1, p = ld 0(p)). The window therefore
// groups its nodes into runs: paths on which each node's only in-window
// producer is the node before it. A chase that reaches a run at position
// c would walk the run down to its oldest node still in the window, so it
// records that interval in O(1) instead and walks on only from the run's
// base, if the base is still in the window. A run node's edge is crossed
// once for every recorded interval that contains it. Nodes leave the
// window oldest first, so that count is settled when a node leaves (or
// when the pass ends) from two running sums per run: the intervals whose
// lower end lies below the node minus those whose upper end does.

// node is one retired instruction in the dependence window.
type node struct {
	prod   [3]uint64 // seq of each producer that was in the window when this node entered it
	pos    uint64    // position in its run; the base is 0
	edge   [3]int32  // static edge id of each producer
	pc     int32
	run    int32
	na, nb uint32 // recorded intervals whose lower, upper end is this node
	nprod  uint8
}

// run is a path of window nodes on which each node after the base has the
// node before it as its only in-window producer. A recorded interval
// (a, b] says that one chase crossed the edges of positions a+1..b.
type run struct {
	base, tail uint64 // seq of the first and of the newest node
	low        uint64 // position of the oldest node still in the window
	sa, sb     uint64 // intervals whose lower, upper end lies below low
	aLow       uint64 // intervals whose lower end is low
	gen        uint64 // the chase that last entered the run
	top        uint64 // the highest position that chase covered
	topSlot    uint64 // window slot of the node at top
}

// edgeRef names the static edge from a consumer pc to producer pc prod.
type edgeRef struct {
	prod int32
	id   int32
}

// depWindow is the dependence window over the last Window retired
// instructions, stored in a power-of-two ring so that a slot is seq&mask.
// Whether a producer is in the window depends on Window alone, so the
// edges do not depend on the rounding.
type depWindow struct {
	win  []node
	mask uint64
	size uint64 // Window

	lastWriter []uint64    // reg -> seq+1 of its last writer, 0 if none
	lastStore  *mem.Memory // 8-byte word -> seq+1 of its last store, 0 if none
	srcBuf     [4]isa.Reg

	// Every live run has a node in the window, so neither table outgrows it.
	runs []run
	free []int32 // ids of runs whose nodes have all left the window
	// recurs marks the pcs seen with an earlier execution of themselves as
	// their only in-window producer. A node of such a pc keeps its run's
	// top for that successor: another consumer starts a run of its own, so
	// that the recurrence is one long run.
	recurs []bool

	edges  [][]edgeRef // consumer pc -> its static producers
	counts []uint64    // edge id -> crossings
	stack  []uint64    // window slots still to enter
	gen    uint64      // chases so far
	steps  uint64      // nodes entered by all chases
}

// newDepWindow returns the window for pass2 over a text of textLen
// instructions, or nil when res holds no d-load: then nothing is chased,
// so pass2 keeps no window and leaves lastStore empty.
//
// lastStore, an empty memory, shadows data memory: the word at each
// 8-byte-aligned address holds seq+1 of the last store to it, 0 if none.
// Loads peek it, so it holds pages only where the program stores.
func newDepWindow(res *Result, window, textLen int, lastStore *mem.Memory) *depWindow {
	if len(res.DLoads) == 0 {
		return nil
	}
	ringLen := 1
	for ringLen < window {
		ringLen <<= 1
	}
	return &depWindow{
		win:        make([]node, ringLen),
		mask:       uint64(ringLen - 1),
		size:       uint64(window),
		lastWriter: make([]uint64, isa.NumRegs),
		lastStore:  lastStore,
		runs:       make([]run, 0, ringLen),
		free:       make([]int32, 0, ringLen),
		recurs:     make([]bool, textLen),
		edges:      make([][]edgeRef, textLen),
	}
}

const storeAlign = ^uint32(7)

// retire enters the instruction of ev into the window and, if miss is
// set, chases back from it.
func (d *depWindow) retire(ev *emu.Event, miss bool) {
	in := &ev.Instr
	var buf [3]uint64
	prods := buf[:0]
	for _, r := range in.Sources(d.srcBuf[:0]) {
		if w := d.lastWriter[r]; w != 0 {
			prods = append(prods, w)
		}
	}
	if in.Op.IsLoad() {
		if w := d.lastStore.PeekU64(ev.Addr & storeAlign); w != 0 {
			prods = append(prods, w)
		}
	}
	seq := ev.Seq
	if in.Op.IsStore() {
		d.lastStore.WriteU64(ev.Addr&storeAlign, seq+1)
	}
	if rd, ok := in.Dest(); ok {
		d.lastWriter[rd] = seq + 1
	}
	slot := d.insert(seq, ev.PC, prods)
	if miss {
		d.chase(slot, seq)
	}
}

// insert enters instruction seq with the given producers (seq+1 values)
// and returns its slot. A producer outside the window now never comes
// back into it, so only the others are kept, with their edge ids.
func (d *depWindow) insert(seq uint64, pc int, prods []uint64) uint64 {
	if seq >= d.size {
		d.leave(seq - d.size)
	}
	slot := seq & d.mask
	n := &d.win[slot]
	*n = node{pc: int32(pc)}
	for _, sp := range prods {
		if s := sp - 1; seq-s < d.size {
			n.prod[n.nprod] = s
			n.edge[n.nprod] = d.edgeID(pc, d.win[s&d.mask].pc)
			n.nprod++
		}
	}
	if n.nprod == 1 {
		y := &d.win[n.prod[0]&d.mask]
		same := y.pc == n.pc
		if same {
			d.recurs[pc] = true
		}
		if r := &d.runs[y.run]; r.tail == n.prod[0] && (same || !d.recurs[y.pc]) {
			n.run, n.pos = y.run, y.pos+1
			r.tail = seq
			return slot
		}
	}
	n.run = d.newRun(seq)
	return slot
}

// edgeID returns the id of the static edge cons <- prod. A consumer has
// few static producers, so a linear search finds one.
func (d *depWindow) edgeID(cons int, prod int32) int32 {
	es := d.edges[cons]
	for _, e := range es {
		if e.prod == prod {
			return e.id
		}
	}
	id := int32(len(d.counts))
	d.counts = append(d.counts, 0)
	d.edges[cons] = append(es, edgeRef{prod, id})
	return id
}

func (d *depWindow) newRun(seq uint64) int32 {
	var id int32
	if k := len(d.free); k > 0 {
		id = d.free[k-1]
		d.free = d.free[:k-1]
	} else {
		id = int32(len(d.runs))
		d.runs = append(d.runs, run{})
	}
	d.runs[id] = run{base: seq, tail: seq}
	return id
}

// leave settles node seq as it leaves the window: its edge was crossed
// once for each interval that contains its position, which is the oldest
// position of its run still in the window.
func (d *depWindow) leave(seq uint64) {
	n := &d.win[seq&d.mask]
	r := &d.runs[n.run]
	if cov := r.sa - r.sb; cov > 0 {
		d.counts[n.edge[0]] += cov
	}
	r.sa += r.aLow + uint64(n.na)
	r.sb += uint64(n.nb)
	r.aLow = 0
	r.low++
	if r.tail == seq {
		d.free = append(d.free, n.run)
	}
}

// chase walks back from the node in slot root through its in-window
// producers, crossing each reachable node's edges once.
func (d *depWindow) chase(root, seqNow uint64) {
	d.gen++
	d.stack = append(d.stack[:0], root)
	for len(d.stack) > 0 {
		slot := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		d.steps++
		n := &d.win[slot]
		r := &d.runs[n.run]
		if r.gen == d.gen {
			if n.pos <= r.top {
				continue
			}
			// (top, pos]: the rest was crossed earlier in this chase.
			d.win[r.topSlot].na++
			n.nb++
		} else {
			r.gen = d.gen
			if n.pos > r.low {
				r.aLow++
				n.nb++
			}
			if r.low == 0 {
				d.expand(r.base&d.mask, seqNow)
			}
		}
		r.top, r.topSlot = n.pos, slot
	}
}

// expand crosses the edges of the node in slot to its producers still in
// the window and queues them.
func (d *depWindow) expand(slot, seqNow uint64) {
	b := &d.win[slot]
	for i := 0; i < int(b.nprod); i++ {
		if s := b.prod[i]; seqNow-s < d.size {
			d.counts[b.edge[i]]++
			d.stack = append(d.stack, s&d.mask)
		}
	}
}

// finish settles the nodes still in the window after next instructions
// and returns the crossings per consumer and producer pc.
func (d *depWindow) finish(next uint64) map[int]map[int]uint64 {
	first := uint64(0)
	if next > d.size {
		first = next - d.size
	}
	for s := first; s < next; s++ {
		d.leave(s)
	}
	deps := map[int]map[int]uint64{}
	for cons, es := range d.edges {
		for _, e := range es {
			if n := d.counts[e.id]; n > 0 {
				if deps[cons] == nil {
					deps[cons] = make(map[int]uint64, len(es))
				}
				deps[cons][int(e.prod)] = n
			}
		}
	}
	return deps
}
