// Package bpred implements the branch prediction hardware of the paper's
// Table 2: a bimodal predictor with a 2048-entry table of 2-bit saturating
// counters, a direct-mapped branch target buffer, and a small return
// address stack for subroutine returns.
package bpred

// Config sizes the predictor structures.
type Config struct {
	Kind      Kind // direction algorithm: Bimodal (paper) or Gshare
	TableSize int  // counter table entries (power of two)
	BTBSize   int  // branch target buffer entries (power of two)
	RASDepth  int  // return address stack entries
}

// DefaultConfig matches the paper: bimodal, 2048-entry table.
func DefaultConfig() Config {
	return Config{TableSize: 2048, BTBSize: 512, RASDepth: 8}
}

// Stats counts conditional-branch prediction outcomes. "Hit ratio" in the
// paper's Table 3 is Correct/Lookups over conditional branches.
type Stats struct {
	Lookups uint64
	Correct uint64
}

// Predictor is the front-end branch predictor. PCs are instruction indices.
type Predictor struct {
	cfg   Config
	table []uint8 // 2-bit saturating counters
	btb   []btbEntry
	ras   []int
	rasSP int
	ghr   uint32 // global history register (gshare)
	Stats Stats
}

type btbEntry struct {
	pc     int
	target int
	valid  bool
}

// New builds a predictor; it panics on non-power-of-two table sizes since
// configurations are static.
func New(cfg Config) *Predictor {
	if cfg.TableSize <= 0 || cfg.TableSize&(cfg.TableSize-1) != 0 {
		panic("bpred: table size must be a positive power of two")
	}
	if cfg.BTBSize <= 0 || cfg.BTBSize&(cfg.BTBSize-1) != 0 {
		panic("bpred: BTB size must be a positive power of two")
	}
	p := &Predictor{
		cfg:   cfg,
		table: make([]uint8, cfg.TableSize),
		btb:   make([]btbEntry, cfg.BTBSize),
		ras:   make([]int, max(cfg.RASDepth, 1)),
	}
	for i := range p.table {
		p.table[i] = 1 // weakly not-taken
	}
	return p
}

// PredictBranch returns the predicted direction for the conditional branch
// at pc. It does not touch statistics; call Update with the outcome.
func (p *Predictor) PredictBranch(pc int) bool {
	return p.table[p.index(pc)] >= 2
}

// Update trains the counter with the actual outcome and records whether the
// earlier prediction was correct. For gshare the counter indexed by the
// *pre-update* history is trained, then the history shifts.
func (p *Predictor) Update(pc int, taken, predicted bool) {
	p.Stats.Lookups++
	if taken == predicted {
		p.Stats.Correct++
	}
	c := &p.table[p.index(pc)]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
	p.noteOutcome(taken)
}

// PredictIndirect returns the BTB's target for an indirect jump at pc,
// with ok=false on a BTB miss.
func (p *Predictor) PredictIndirect(pc int) (target int, ok bool) {
	e := p.btb[pc&(p.cfg.BTBSize-1)]
	if e.valid && e.pc == pc {
		return e.target, true
	}
	return 0, false
}

// UpdateIndirect installs the resolved target of an indirect jump.
func (p *Predictor) UpdateIndirect(pc, target int) {
	p.btb[pc&(p.cfg.BTBSize-1)] = btbEntry{pc: pc, target: target, valid: true}
}

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(ret int) {
	p.ras[p.rasSP%len(p.ras)] = ret
	p.rasSP++
}

// PopRAS predicts a return target; ok=false when the stack is empty.
func (p *Predictor) PopRAS() (int, bool) {
	if p.rasSP == 0 {
		return 0, false
	}
	p.rasSP--
	return p.ras[p.rasSP%len(p.ras)], true
}

// ResetStats clears outcome counters while keeping learned state.
func (p *Predictor) ResetStats() { p.Stats = Stats{} }
