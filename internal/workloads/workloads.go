// Package workloads provides the fifteen benchmark kernels of the paper's
// Table 1 — six Atlantic Aerospace Stressmarks, three DIS benchmarks, and
// six SPEC2000 programs — as synthetic SPISA kernels.
//
// The originals are PISA binaries compiled with gcc-2.6.3, which cannot be
// reproduced here; each kernel instead reproduces the memory-system and
// control-flow character the paper attributes to its namesake (miss rate,
// slice-to-body ratio, branch predictability, d-load density), which are
// the properties that determine SPEAR's behaviour. Instruction counts are
// scaled down so the whole evaluation runs on a laptop.
//
// Every kernel has two inputs: Train (profiled by the SPEAR compiler) and
// Ref (simulated for measurement). The two differ in random seed, data
// content, and iteration count — but never in text, so p-thread
// annotations built on Train apply to Ref, just as in the paper.
package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"spear/internal/asm"
	"spear/internal/prog"
)

// Input selects the data set a kernel is built with.
type Input int

const (
	// Train is the profiling input (used by the SPEAR compiler).
	Train Input = iota
	// Ref is the reference input (used for measurement).
	Ref
)

func (in Input) String() string {
	if in == Train {
		return "train"
	}
	return "ref"
}

// Kernel is one benchmark program generator.
type Kernel struct {
	Name        string
	Suite       string // "stressmark", "dis", or "spec"
	Description string
	// Character summarizes the behaviour the kernel is engineered to
	// reproduce (used by documentation and Table 1).
	Character string
	build     func(Input) (*prog.Program, error)
}

// Build assembles the kernel with the given input's data set.
func (k Kernel) Build(in Input) (*prog.Program, error) {
	p, err := k.build(in)
	if err != nil {
		return nil, fmt.Errorf("workload %s(%s): %w", k.Name, in, err)
	}
	p.Name = k.Name + "." + in.String()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s(%s): %w", k.Name, in, err)
	}
	return p, nil
}

var registry []Kernel

func register(k Kernel) { registry = append(registry, k) }

// All returns every kernel in the paper's Table 1 order.
func All() []Kernel {
	order := []string{
		"pointer", "update", "nbh", "tr", "matrix", "field",
		"dm", "ray", "fft",
		"gzip", "mcf", "vpr", "bzip2", "equake", "art",
	}
	out := make([]Kernel, 0, len(order))
	for _, name := range order {
		k, ok := ByName(name)
		if !ok {
			panic("workloads: missing kernel " + name)
		}
		out = append(out, *k)
	}
	return out
}

// Names returns every kernel name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for _, k := range registry {
		names = append(names, k.Name)
	}
	sort.Strings(names)
	return names
}

// ByName finds a kernel: one of the fifteen registered benchmarks, or a
// generated program addressed as "gen:<seed>:<spec>" (built on the fly;
// see Generated). Every kernel-name consumer — spearbench -kernels, sched
// requests, speard jobs — resolves through here, so generated kernels
// work across the whole stack.
func ByName(name string) (*Kernel, bool) {
	if strings.HasPrefix(name, GenPrefix) {
		k, err := GeneratedFromName(name)
		if err != nil {
			return nil, false
		}
		return &k, true
	}
	for i := range registry {
		if registry[i].Name == name {
			return &registry[i], true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------- helpers

// seedFor derives deterministic, distinct seeds per kernel and input.
func seedFor(name string, in Input) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h = (h ^ int64(c)) * 1099511628211
	}
	if in == Train {
		h ^= 0x5EED
	}
	return h
}

// build assembles source and returns the program plus a filler bound to its
// single data chunk.
func build(name, src string) (*prog.Program, *filler, error) {
	p, err := asm.Assemble(name+".s", src)
	if err != nil {
		return nil, nil, err
	}
	if len(p.Data) != 1 {
		return nil, nil, fmt.Errorf("expected one data chunk, got %d", len(p.Data))
	}
	return p, &filler{p: p}, nil
}

// filler writes typed values into the program's data image by symbol.
// A fill loop writes one symbol many times, so the last symbol resolved
// is kept with its offset in the image.
type filler struct {
	p      *prog.Program
	err    error
	sym    string
	symOff uint32
}

func (f *filler) offset(sym string, idx int, size uint32) (uint32, bool) {
	if f.err != nil {
		return 0, false
	}
	if sym != f.sym || f.sym == "" {
		addr, ok := f.p.Symbols[sym]
		if !ok {
			f.err = fmt.Errorf("unknown data symbol %q", sym)
			return 0, false
		}
		f.sym, f.symOff = sym, addr-f.p.Data[0].Addr
	}
	off := f.symOff + uint32(idx)*size
	if int(off)+int(size) > len(f.p.Data[0].Bytes) {
		f.err = fmt.Errorf("write to %s[%d] overflows data image", sym, idx)
		return 0, false
	}
	return off, true
}

// U64 stores v at sym[idx] (8-byte elements).
func (f *filler) U64(sym string, idx int, v uint64) {
	if off, ok := f.offset(sym, idx, 8); ok {
		binary.LittleEndian.PutUint64(f.p.Data[0].Bytes[off:], v)
	}
}

// F64 stores a double at sym[idx].
func (f *filler) F64(sym string, idx int, v float64) {
	f.U64(sym, idx, math.Float64bits(v))
}

// Param sets a scalar parameter (an 8-byte cell).
func (f *filler) Param(sym string, v uint64) { f.U64(sym, 0, v) }

// Err returns the first fill error.
func (f *filler) Err() error { return f.err }

// rng returns the kernel's deterministic random stream.
func rng(name string, in Input) *rand.Rand {
	return rand.New(rand.NewSource(seedFor(name, in)))
}

// biasedBits builds a word stream whose low bit is 1 with probability p —
// the raw material for data-dependent branches with a chosen predictability.
func biasedBits(r *rand.Rand, p float64) func() uint64 {
	return func() uint64 {
		v := uint64(r.Int63()) &^ 1
		if r.Float64() < p {
			v |= 1
		}
		return v
	}
}
