package progen

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spear/internal/asm"
	"spear/internal/cpu"
	"spear/internal/emu"
	"spear/internal/isa"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSourceDeterministic(t *testing.T) {
	spec := DefaultSpec()
	a, err := Source(42, spec, Ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Source(42, spec, Ref)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same (seed, spec, variant) produced different source")
	}
	c, err := Source(43, spec, Ref)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds produced identical source")
	}
}

// TestSourceGolden pins the generator's byte-exact output across runs and
// platforms (acceptance criterion: same seed + spec → byte-identical
// program). Regenerate with -update after deliberate generator changes —
// which also invalidates every saved seed, so bump deliberately.
func TestSourceGolden(t *testing.T) {
	cases := []struct {
		file string
		seed int64
		spec Spec
	}{
		{"gen_seed42_default.s", 42, DefaultSpec()},
		{"gen_seed7_tiny.s", 7, Presets()["tiny"]},
		{"gen_seed1_random.s", 1, RandomSpec(1)},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			got, err := Source(tc.seed, tc.spec, Ref)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal([]byte(got), want) {
				t.Fatalf("generated source differs from golden %s (re-run with -update if intended)", path)
			}
		})
	}
}

func TestTrainRefContract(t *testing.T) {
	spec := Presets()["tiny"]
	ref, err := Build(11, spec, Ref)
	if err != nil {
		t.Fatal(err)
	}
	train, err := Build(11, spec, Train)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Text, train.Text) {
		t.Fatal("train and ref variants must share byte-identical text")
	}
	if reflect.DeepEqual(ref.Data, train.Data) {
		t.Fatal("train and ref variants must differ in data (nIter/dseed)")
	}
}

// TestTerminationWithinBudget is the core by-construction property: every
// generated program halts, and retires no more than Spec.Budget
// instructions, for both variants.
func TestTerminationWithinBudget(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		spec := RandomSpec(seed)
		for _, v := range []Variant{Ref, Train} {
			p, err := Build(seed, spec, v)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v, err)
			}
			m := emu.New(p)
			if err := m.Run(uint64(spec.Budget)); err != nil {
				t.Fatalf("seed %d %s: did not halt within budget %d: %v", seed, v, spec.Budget, err)
			}
			if m.Count > uint64(spec.Budget) {
				t.Fatalf("seed %d %s: retired %d > budget %d", seed, v, m.Count, spec.Budget)
			}
		}
	}
}

func TestRandomSpecAlwaysFeasible(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		spec := RandomSpec(seed)
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: invalid spec: %v", seed, err)
		}
		if _, err := Source(seed, spec, Ref); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []Spec{DefaultSpec(), RandomSpec(3), RandomSpec(99)}
	for name, s := range Presets() {
		_ = name
		specs = append(specs, s)
	}
	for _, s := range specs {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip mismatch: %q -> %+v", s.String(), got)
		}
	}
	for _, bad := range []string{
		"", "b6", "b6_b7", "z9", DefaultSpec().String() + "_b6",
		"b6_k8_l2_t6_i400_I150_m0.3_p2_c2_d0.4_B0.7_f0.15_C0.1_D32768", // missing G
		"bx_k8_l2_t6_i400_I150_m0.3_p2_c2_d0.4_B0.7_f0.15_C0.1_D32768_G400000",
		"b6_k8_l2_t6_i400_I150_mNaN_p2_c2_d0.4_B0.7_f0.15_C0.1_D32768_G400000",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) should fail", bad)
		}
	}
}

// FuzzParseSpec feeds arbitrary text to ParseSpec, the decoder behind
// untrusted "gen:<seed>:<spec>" kernel names. Every accepted spec must
// validate, keep its probability knobs in [0,1] (NaN included), render
// without the separators that -kernels splitting and journal keys rely
// on, and round-trip through String.
func FuzzParseSpec(f *testing.F) {
	f.Add(DefaultSpec().String())
	f.Add(RandomSpec(7).String())
	f.Add("G400000_D32768_C0.1_f0.15_B0.7_d0.4_c2_p2_m0.3_I150_i400_t6_l2_k8_b6")
	f.Add("b6_k8_l2_t6_i400_I150_mNaN_p2_c2_d0.4_B0.7_f0.15_C0.1_D32768_G400000")
	f.Add("b6_k8_l2_t6_i400_I150_m+Inf_p2_c2_d0.4_B0.7_f0.15_C0.1_D32768_G400000")
	f.Add("b6_k8_l2_t6_i400_I150_m0x1p-2_p2_c2_d-0_B0.7_f0.15_C0.1_D32768_G400000")
	f.Add("b6_b6")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec that fails Validate: %v", text, err)
		}
		for _, v := range []float64{s.Mem, s.Branch, s.Bias, s.FP, s.Calls} {
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("ParseSpec(%q) accepted probability knob %v", text, v)
			}
		}
		enc := s.String()
		if strings.ContainsAny(enc, ", ") {
			t.Fatalf("String() = %q contains a comma or space", enc)
		}
		back, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("ParseSpec(String()) = %v for %q (from %q)", err, enc, text)
		}
		if back != s {
			t.Fatalf("round trip mismatch: %q -> %+v -> %q -> %+v", text, s, enc, back)
		}
	})
}

// TestKnobsShapeCharacter checks the knobs actually steer the instruction
// mix: a memory-bound spec emits more loads than a branchy spec, and vice
// versa for conditional branches.
func TestKnobsShapeCharacter(t *testing.T) {
	count := func(spec Spec, pred func(isa.Op) bool) int {
		p, err := Generate(5, spec)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, in := range p.Text {
			if pred(in.Op) {
				n++
			}
		}
		return n
	}
	mem, branchy := Presets()["membound"], Presets()["branchy"]
	isLoad := func(o isa.Op) bool { return o.IsLoad() }
	isBr := func(o isa.Op) bool { return o.IsBranch() }
	if lm, lb := count(mem, isLoad), count(branchy, isLoad); lm <= lb {
		t.Fatalf("membound should emit more loads than branchy: %d vs %d", lm, lb)
	}
	if bm, bb := count(mem, isBr), count(branchy, isBr); bb <= bm {
		t.Fatalf("branchy should emit more branches than membound: %d vs %d", bb, bm)
	}
}

// TestDumpSourceRoundTrip: a dumped reproducer re-assembles to the same
// text, entry, and data image.
func TestDumpSourceRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p, err := Generate(seed, RandomSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		src := DumpSource(p)
		q, err := asm.Assemble(p.Name+".dump.s", src)
		if err != nil {
			t.Fatalf("seed %d: reassemble: %v", seed, err)
		}
		if !reflect.DeepEqual(p.Text, q.Text) {
			t.Fatalf("seed %d: text changed through dump/reassemble", seed)
		}
		if p.Entry != q.Entry {
			t.Fatalf("seed %d: entry changed: %d -> %d", seed, p.Entry, q.Entry)
		}
		if !reflect.DeepEqual(p.Data, q.Data) {
			t.Fatalf("seed %d: data image changed through dump/reassemble", seed)
		}
	}
}

func TestCheckCleanOnGenerated(t *testing.T) {
	cfgs := []cpu.Config{cpu.BaselineConfig(), cpu.SPEARConfig(128, false)}
	p, err := Generate(3, Presets()["tiny"])
	if err != nil {
		t.Fatal(err)
	}
	res := Check(p, CheckOptions{Configs: cfgs})
	if res.Div != nil {
		t.Fatalf("clean program diverged: %v", res.Div)
	}
	if res.RefCount == 0 {
		t.Fatal("reference run retired nothing")
	}
}

// corruptingTamper installs the test-only emulator hook used by the
// shrinker regression tests: every retired MUL perturbs r5, so the
// reference emulator diverges from the (clean) cycle simulator on any
// program that executes a multiply and halts.
func corruptingTamper(m *emu.Machine) {
	m.Hook = func(ev *emu.Event) {
		if ev.Instr.Op == isa.MUL {
			m.R[5] += 0x1234
		}
	}
}

// TestShrinkSyntheticDivergence is the satellite regression: a synthetic
// divergence injected through the emulator hook must shrink to ≤ 10
// instructions, deterministically.
func TestShrinkSyntheticDivergence(t *testing.T) {
	p, err := Generate(21, Presets()["tiny"])
	if err != nil {
		t.Fatal(err)
	}
	opts := CheckOptions{
		Configs:   []cpu.Config{cpu.BaselineConfig()},
		MaxInstr:  40_000,
		TamperRef: corruptingTamper,
	}
	orig := Check(p, opts)
	if orig.Div == nil {
		t.Fatal("tampered reference should diverge")
	}
	if orig.Div.Kind != KindStateHash {
		t.Fatalf("expected state-hash divergence, got %v", orig.Div)
	}
	shrunk := ShrinkDivergence(p, orig, opts, 0)

	if got := len(shrunk.Text); got > 10 {
		t.Fatalf("shrunk to %d instructions, want ≤ 10", got)
	}
	res := Check(shrunk, opts)
	if res.Div == nil || res.Div.Kind != orig.Div.Kind {
		t.Fatalf("shrunk program no longer reproduces the failure: %v", res.Div)
	}
	// Determinism: shrinking again yields the identical program.
	again := ShrinkDivergence(p, orig, opts, 0)
	if !reflect.DeepEqual(shrunk.Text, again.Text) {
		t.Fatal("shrink is not deterministic")
	}
}
