// Package progen is the property-based SPISA program generator: from a
// 64-bit seed and a Spec of character knobs it emits a random but
// well-formed assembly program that is guaranteed, by construction, to
// halt within a dynamic-instruction budget.
//
// Guarantees (relied on by the differential-fuzz harness and DESIGN.md §16):
//
//   - Determinism: the same (seed, spec, variant) produces byte-identical
//     source on every run and platform. The generator draws exclusively
//     from math/rand.NewSource, whose sequence is part of Go's
//     compatibility promise, and never iterates a map.
//   - Termination: every backward control edge is either a counted loop
//     over a dedicated count-down register that the body never touches, or
//     a data-fill loop over a monotonically increasing index. Data-dependent
//     branches only skip forward. Calls target leaf subroutines that return
//     through an untouched r31. The emitter tracks an exact upper bound on
//     dynamic instructions and clamps the iteration count so the bound
//     never exceeds Spec.Budget.
//   - Well-formedness: the emitted text assembles with internal/asm and
//     passes prog.Validate; loads and stores are masked into the program's
//     own data region, so the image the emulator hashes is fully determined
//     by the program itself.
//
// Programs have the same Train/Ref contract as the hand-written kernels:
// both variants share byte-identical text and differ only in two data
// cells (iteration count and data seed), so SPEAR annotations built on
// Train transfer to Ref.
package progen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Spec is the set of character knobs for one generated program. The
// zero value is invalid; start from DefaultSpec or RandomSpec.
type Spec struct {
	Blocks    int // b: basic blocks per innermost loop body
	BlockLen  int // k: max instruction slots per block
	Loops     int // l: loop nesting depth including the outer loop (1..3)
	InnerTrip int // t: trip count of each nested counted loop
	Iters     int // i: requested outer-loop trips, reference input
	TrainIter int // I: requested outer-loop trips, training input

	Mem          float64 // m: probability a body slot is a memory op
	PointerDepth int     // p: pointer-chase loads per outer iteration
	Cluster      int     // c: length of dependent (delinquent) load chains
	Branch       float64 // d: probability a block ends in a data-dependent branch
	Bias         float64 // B: taken probability of those branches
	FP           float64 // f: share of non-memory slots in the FP pipeline
	Calls        float64 // C: probability a block calls a leaf subroutine

	DataBytes int // D: data region size in bytes (power of two)
	Budget    int // G: hard cap on dynamic instructions, reference input
}

// DefaultSpec is a balanced mid-size program: ~50k instructions of data
// initialization plus a few hundred thousand instructions of mixed body.
func DefaultSpec() Spec {
	return Spec{
		Blocks: 6, BlockLen: 8, Loops: 2, InnerTrip: 6,
		Iters: 400, TrainIter: 150,
		Mem: 0.3, PointerDepth: 2, Cluster: 2,
		Branch: 0.4, Bias: 0.7, FP: 0.15, Calls: 0.1,
		DataBytes: 32768, Budget: 400_000,
	}
}

// Validate rejects knob values the emitter cannot honour.
func (s Spec) Validate() error {
	switch {
	case s.Blocks < 1 || s.Blocks > 64:
		return fmt.Errorf("progen: Blocks %d out of range [1,64]", s.Blocks)
	case s.BlockLen < 1 || s.BlockLen > 32:
		return fmt.Errorf("progen: BlockLen %d out of range [1,32]", s.BlockLen)
	case s.Loops < 1 || s.Loops > 3:
		return fmt.Errorf("progen: Loops %d out of range [1,3]", s.Loops)
	case s.InnerTrip < 1 || s.InnerTrip > 64:
		return fmt.Errorf("progen: InnerTrip %d out of range [1,64]", s.InnerTrip)
	case s.Iters < 1 || s.TrainIter < 1:
		return fmt.Errorf("progen: Iters/TrainIter must be positive")
	case s.PointerDepth < 0 || s.PointerDepth > 64:
		return fmt.Errorf("progen: PointerDepth %d out of range [0,64]", s.PointerDepth)
	case s.Cluster < 1 || s.Cluster > 8:
		return fmt.Errorf("progen: Cluster %d out of range [1,8]", s.Cluster)
	case bad01(s.Mem) || bad01(s.Branch) || bad01(s.Bias) || bad01(s.FP) || bad01(s.Calls):
		return fmt.Errorf("progen: probability knobs must be in [0,1]")
	case s.DataBytes < 4096 || s.DataBytes > 1<<20 || s.DataBytes&(s.DataBytes-1) != 0:
		return fmt.Errorf("progen: DataBytes %d must be a power of two in [4096,1<<20]", s.DataBytes)
	case s.Budget < 10_000 || s.Budget > 20_000_000:
		return fmt.Errorf("progen: Budget %d out of range [10000,20000000]", s.Budget)
	}
	return nil
}

// bad01 reports a probability knob outside [0,1]. It is written as the
// negation of the in-range test so that NaN, for which every comparison
// is false, is rejected too.
func bad01(v float64) bool { return !(v >= 0 && v <= 1) }

// specFields maps the canonical single-letter keys to accessors, in
// canonical emission order.
var specFields = []struct {
	key string
	get func(*Spec) string
	set func(*Spec, string) error
}{
	{"b", func(s *Spec) string { return itoa(s.Blocks) }, func(s *Spec, v string) error { return atoi(&s.Blocks, v) }},
	{"k", func(s *Spec) string { return itoa(s.BlockLen) }, func(s *Spec, v string) error { return atoi(&s.BlockLen, v) }},
	{"l", func(s *Spec) string { return itoa(s.Loops) }, func(s *Spec, v string) error { return atoi(&s.Loops, v) }},
	{"t", func(s *Spec) string { return itoa(s.InnerTrip) }, func(s *Spec, v string) error { return atoi(&s.InnerTrip, v) }},
	{"i", func(s *Spec) string { return itoa(s.Iters) }, func(s *Spec, v string) error { return atoi(&s.Iters, v) }},
	{"I", func(s *Spec) string { return itoa(s.TrainIter) }, func(s *Spec, v string) error { return atoi(&s.TrainIter, v) }},
	{"m", func(s *Spec) string { return ftoa(s.Mem) }, func(s *Spec, v string) error { return atof(&s.Mem, v) }},
	{"p", func(s *Spec) string { return itoa(s.PointerDepth) }, func(s *Spec, v string) error { return atoi(&s.PointerDepth, v) }},
	{"c", func(s *Spec) string { return itoa(s.Cluster) }, func(s *Spec, v string) error { return atoi(&s.Cluster, v) }},
	{"d", func(s *Spec) string { return ftoa(s.Branch) }, func(s *Spec, v string) error { return atof(&s.Branch, v) }},
	{"B", func(s *Spec) string { return ftoa(s.Bias) }, func(s *Spec, v string) error { return atof(&s.Bias, v) }},
	{"f", func(s *Spec) string { return ftoa(s.FP) }, func(s *Spec, v string) error { return atof(&s.FP, v) }},
	{"C", func(s *Spec) string { return ftoa(s.Calls) }, func(s *Spec, v string) error { return atof(&s.Calls, v) }},
	{"D", func(s *Spec) string { return itoa(s.DataBytes) }, func(s *Spec, v string) error { return atoi(&s.DataBytes, v) }},
	{"G", func(s *Spec) string { return itoa(s.Budget) }, func(s *Spec, v string) error { return atoi(&s.Budget, v) }},
}

func itoa(v int) string             { return strconv.Itoa(v) }
func atoi(dst *int, v string) error { n, err := strconv.Atoi(v); *dst = n; return err }
func ftoa(v float64) string         { return strconv.FormatFloat(v, 'g', -1, 64) }
func atof(dst *float64, v string) error {
	f, err := strconv.ParseFloat(v, 64)
	*dst = f
	return err
}

// String renders the canonical underscore-separated encoding, e.g.
// "b6_k8_l2_t6_i400_I150_m0.3_p2_c2_d0.4_B0.7_f0.15_C0.1_D32768_G400000".
// The encoding contains no commas or spaces so it survives -kernels flag
// splitting and journal keys, and ParseSpec round-trips it exactly.
func (s Spec) String() string {
	parts := make([]string, len(specFields))
	for i, f := range specFields {
		parts[i] = f.key + f.get(&s)
	}
	return strings.Join(parts, "_")
}

// ParseSpec parses the canonical encoding produced by String. Every field
// must appear exactly once; order is free on input, canonical on output.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	seen := make([]bool, len(specFields))
	for _, tok := range strings.Split(text, "_") {
		if tok == "" {
			return Spec{}, fmt.Errorf("progen: empty field in spec %q", text)
		}
		matched := false
		for i, f := range specFields {
			if strings.HasPrefix(tok, f.key) {
				if seen[i] {
					return Spec{}, fmt.Errorf("progen: duplicate field %q in spec %q", f.key, text)
				}
				if err := f.set(&s, tok[len(f.key):]); err != nil {
					return Spec{}, fmt.Errorf("progen: bad value %q in spec %q", tok, text)
				}
				seen[i] = true
				matched = true
				break
			}
		}
		if !matched {
			return Spec{}, fmt.Errorf("progen: unknown field %q in spec %q", tok, text)
		}
	}
	for i, f := range specFields {
		if !seen[i] {
			return Spec{}, fmt.Errorf("progen: missing field %q in spec %q", f.key, text)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Character summarizes the behavioural regime the knobs select, in the
// style of the hand-written kernels' Character strings.
func (s Spec) Character() string {
	return fmt.Sprintf("generated: mem %.2f, chase depth %d, load clusters %d, branches %.2f@%.2f, loops %d×%d, fp %.2f, %d KiB data",
		s.Mem, s.PointerDepth, s.Cluster, s.Branch, s.Bias, s.Loops, s.InnerTrip, s.FP, s.DataBytes/1024)
}

// hash folds the canonical encoding into 64 bits; mixed into the seed so
// two specs at the same seed draw different instruction streams.
func (s Spec) hash() int64 {
	h := fnv.New64a()
	h.Write([]byte(s.String()))
	return int64(h.Sum64())
}

// RandomSpec draws a feasible random spec. Knob combinations whose
// worst-case per-iteration cost could not fit at least one outer
// iteration in the budget are clamped down deterministically, so
// Source/Build never fail on a RandomSpec output (property-tested).
func RandomSpec(seed int64) Spec {
	r := rand.New(rand.NewSource(seed*0x9E3779B9 + 0x7F4A7C15))
	s := Spec{
		Blocks:       2 + r.Intn(8),
		BlockLen:     3 + r.Intn(10),
		Loops:        1 + r.Intn(3),
		InnerTrip:    2 + r.Intn(10),
		Iters:        100 + r.Intn(2900),
		TrainIter:    50 + r.Intn(500),
		Mem:          pct(r, 5, 60),
		PointerDepth: r.Intn(5),
		Cluster:      1 + r.Intn(4),
		Branch:       pct(r, 0, 70),
		Bias:         pct(r, 5, 95),
		FP:           pct(r, 0, 50),
		Calls:        pct(r, 0, 30),
		DataBytes:    8192 << r.Intn(3),
	}
	// Clamp the loop nest until one outer iteration surely fits: the body
	// worst case (every slot a max-length load chain, every block ending
	// in call+branch) must stay under ~3k instructions per outer trip.
	for s.perWorst() > 3000 {
		switch {
		case s.InnerTrip > 2:
			s.InnerTrip--
		case s.Blocks > 2:
			s.Blocks--
		case s.BlockLen > 3:
			s.BlockLen--
		default:
			s.Loops--
		}
	}
	s.Budget = s.fixedWorst() + s.perWorst()*(20+r.Intn(120))
	return s
}

func pct(r *rand.Rand, lo, hi int) float64 { return float64(lo+r.Intn(hi-lo+1)) / 100 }

// perWorst bounds the cost of one outer iteration from above, assuming
// every slot takes its most expensive shape.
func (s Spec) perWorst() int {
	slot := 3*s.Cluster + 2               // max-length load chain
	block := s.BlockLen*slot + 9 + 9 + 10 // slots + branch + call(+leaf)
	mult := 1
	for d := 1; d < s.Loops; d++ {
		mult *= s.InnerTrip
	}
	// Counted-loop overhead: guard+decrement+jump per trip plus setup.
	overhead := s.Loops * (s.InnerTrip + 4) * mult
	return mult*s.Blocks*block + overhead + s.PointerDepth + 8
}

// fixedWorst bounds the one-time cost (prologue, data fill, ring build).
func (s Spec) fixedWorst() int {
	return 6*(s.DataBytes/8) + 9*(s.DataBytes/16) + 64
}

// Presets names a few hand-picked character mixes used by cmd/spearfuzz
// -spec and the committed corpus.
func Presets() map[string]Spec {
	d := DefaultSpec()

	chase := d
	chase.Mem, chase.PointerDepth, chase.Cluster = 0.5, 6, 3
	chase.Branch, chase.FP = 0.2, 0.05
	chase.DataBytes, chase.Budget = 65536, 600_000
	chase.Iters = 800

	branchy := d
	branchy.Branch, branchy.Bias, branchy.Mem = 0.9, 0.55, 0.15
	branchy.Blocks, branchy.BlockLen = 10, 4

	membound := d
	membound.Mem, membound.Cluster, membound.PointerDepth = 0.65, 4, 1
	membound.DataBytes, membound.Budget = 65536, 600_000

	fp := d
	fp.FP, fp.Mem, fp.Branch = 0.75, 0.15, 0.25

	deep := d
	deep.Loops, deep.InnerTrip, deep.Calls = 3, 5, 0.35
	deep.Blocks, deep.BlockLen, deep.Iters = 3, 5, 300

	tiny := d
	tiny.Blocks, tiny.BlockLen, tiny.Loops, tiny.InnerTrip = 2, 3, 1, 1
	tiny.Iters, tiny.TrainIter = 60, 30
	tiny.DataBytes, tiny.Budget, tiny.PointerDepth = 4096, 30_000, 1

	return map[string]Spec{
		"default": d, "chase": chase, "branchy": branchy,
		"membound": membound, "fp": fp, "deep": deep, "tiny": tiny,
	}
}

// PresetNames returns the preset names, sorted.
func PresetNames() []string {
	m := Presets()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
