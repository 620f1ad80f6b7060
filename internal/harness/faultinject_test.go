package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"spear/internal/cpu"
	"spear/internal/prog"
)

// mcfPrepared returns the shared suite's annotated mcf (the kernel with
// p-threads to corrupt).
func mcfPrepared(t *testing.T) *Prepared {
	t.Helper()
	for _, p := range suite(t).Prepared {
		if p.Kernel.Name == "mcf" {
			return p
		}
	}
	t.Fatal("mcf not prepared")
	return nil
}

// derivedSuite builds a fresh Suite around existing Prepared entries so
// tests can poison caches or inject broken kernels without touching the
// shared memoized suite.
func derivedSuite(opts Options, prepared ...*Prepared) *Suite {
	return &Suite{Opts: opts, Prepared: prepared, cache: map[string]runOutcome{}, Failed: map[string]error{}}
}

func TestInjectorDeterministic(t *testing.T) {
	ref := mcfPrepared(t).Ref
	descs := func(seed int64) []string {
		inj := NewInjector(seed)
		var out []string
		for _, class := range FaultClasses() {
			i, err := inj.Inject(ref, class)
			if err != nil {
				t.Fatalf("%s: %v", class, err)
			}
			out = append(out, i.Desc)
		}
		return out
	}
	a, b := descs(42), descs(42)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("seed 42 not deterministic: %q vs %q", a[i], b[i])
		}
	}
}

func TestInjectionsAreValidAndPerturbed(t *testing.T) {
	ref := mcfPrepared(t).Ref
	inj := NewInjector(3)
	for _, class := range FaultClasses() {
		i, err := inj.Inject(ref, class)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if err := i.Prog.Validate(); err != nil {
			t.Errorf("%s: injected program invalid: %v", class, err)
		}
		if i.Prog == ref {
			t.Errorf("%s: injection did not clone the program", class)
		}
		switch class {
		case FaultCorruptMask:
			orig, got := 0, 0
			for _, pt := range ref.PThreads {
				orig += len(pt.Members)
			}
			for _, pt := range i.Prog.PThreads {
				got += len(pt.Members)
			}
			if got <= orig {
				t.Errorf("corrupt-mask added no members (%d -> %d)", orig, got)
			}
		case FaultBogusTrigger:
			same := true
			for k := range ref.PThreads {
				if i.Prog.PThreads[k].DLoad != ref.PThreads[k].DLoad {
					same = false
				}
			}
			if same {
				t.Error("bogus-trigger left every d-load unchanged")
			}
		case FaultFlipOpcodeBits:
			if len(i.Override) != 1 {
				t.Errorf("flip-opcode-bits override = %v", i.Override)
			}
			for pc, in := range i.Override {
				if in == i.Prog.Text[pc] {
					t.Error("flip-opcode-bits override equals the real text")
				}
			}
		}
	}
	// Original annotations must be untouched by any injection.
	if err := ref.Validate(); err != nil {
		t.Fatalf("source program damaged by injection: %v", err)
	}
}

func TestInjectRejectsUnannotatedProgram(t *testing.T) {
	p := &prog.Program{Name: "bare"}
	if _, err := NewInjector(1).Inject(p, FaultCorruptMask); err == nil {
		t.Error("injection into a p-thread-less program accepted")
	}
	if _, err := NewInjector(1).Inject(mcfPrepared(t).Ref, FaultClass("nonesuch")); err == nil {
		t.Error("unknown fault class accepted")
	}
}

func TestFaultSuiteContainment(t *testing.T) {
	s := derivedSuite(suite(t).Opts, mcfPrepared(t))
	rows := s.FaultSuite(7)
	if len(rows) != len(FaultClasses()) {
		t.Fatalf("rows = %d, want one per fault class", len(rows))
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Errorf("%s/%s: %v", r.Kernel, r.Class, r.Err)
			continue
		}
		if !r.Contained() {
			t.Errorf("%s/%s (%s): containment invariant violated (state %v, count %v)",
				r.Kernel, r.Class, r.Desc, r.StateMatch, r.CountMatch)
		}
	}
	out := RenderFaultSuite(rows)
	for _, want := range []string{"containment invariant", "mcf", "corrupt-mask", "4/4 contained"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// brokenSuite pairs a healthy kernel (field) with an mcf whose binary fails
// validation instantly, so every sweep exercises the partial-results path
// without long simulations of the broken kernel.
func brokenSuite(t *testing.T) *Suite {
	t.Helper()
	var good, victim *Prepared
	for _, p := range suite(t).Prepared {
		switch p.Kernel.Name {
		case "field":
			good = p
		case "mcf":
			victim = p
		}
	}
	bad := *victim
	ref := victim.Ref.Clone()
	ref.PThreads[0].DLoad = -1 // cpu.Run rejects this before simulating
	bad.Ref = ref
	return derivedSuite(suite(t).Opts, good, &bad)
}

func TestSweepsReturnPartialResults(t *testing.T) {
	s := brokenSuite(t)

	type rowView struct {
		name string
		err  error
	}
	checks := []struct {
		name string
		rows func() ([]rowView, string, error)
	}{
		{"fig6", func() ([]rowView, string, error) {
			rows, err := s.Figure6()
			var out []rowView
			for _, r := range rows {
				out = append(out, rowView{r.Name, r.Err})
				if r.Err == nil && (r.Base == nil || r.Norm128 <= 0) {
					t.Errorf("fig6 %s: clean row missing results", r.Name)
				}
			}
			return out, RenderFigure6(rows), err
		}},
		{"table3", func() ([]rowView, string, error) {
			rows, err := s.Table3()
			var out []rowView
			for _, r := range rows {
				out = append(out, rowView{r.Name, r.Err})
				if r.Err == nil && r.IPB <= 0 {
					t.Errorf("table3 %s: clean row missing results", r.Name)
				}
			}
			return out, RenderTable3(rows), err
		}},
		{"fig7", func() ([]rowView, string, error) {
			rows, err := s.Figure7()
			var out []rowView
			for _, r := range rows {
				out = append(out, rowView{r.Name, r.Err})
				if r.Err == nil && r.NormSf128 <= 0 {
					t.Errorf("fig7 %s: clean row missing results", r.Name)
				}
			}
			return out, RenderFigure7(rows), err
		}},
		{"fig8", func() ([]rowView, string, error) {
			rows, err := s.Figure8()
			var out []rowView
			for _, r := range rows {
				out = append(out, rowView{r.Name, r.Err})
			}
			return out, RenderFigure8(rows), err
		}},
	}
	for _, c := range checks {
		rows, render, err := c.rows()
		if err != nil {
			t.Fatalf("%s: sweep aborted instead of returning partial results: %v", c.name, err)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: rows = %d, want 2", c.name, len(rows))
		}
		for _, r := range rows {
			switch r.name {
			case "field":
				if r.err != nil {
					t.Errorf("%s: healthy kernel reported error: %v", c.name, r.err)
				}
			case "mcf":
				if r.err == nil {
					t.Errorf("%s: broken kernel reported no error", c.name)
				}
			}
		}
		if !strings.Contains(render, "ERROR") {
			t.Errorf("%s render does not surface the row error:\n%s", c.name, render)
		}
	}

	// Figure 9 sweeps only mcf from this suite; its series must carry the
	// error rather than abort.
	series, err := s.Figure9()
	if err != nil {
		t.Fatalf("fig9: %v", err)
	}
	if len(series) != 1 || series[0].Name != "mcf" {
		t.Fatalf("fig9 series = %+v", series)
	}
	if series[0].Err == nil {
		t.Error("fig9: broken kernel's series has no error")
	}
	if !strings.Contains(RenderFigure9(series), "sweep incomplete") {
		t.Error("fig9 render does not surface the series error")
	}
}

func TestRunMemoizesErrors(t *testing.T) {
	s := brokenSuite(t)
	var broken *Prepared
	for _, p := range s.Prepared {
		if p.Kernel.Name == "mcf" {
			broken = p
		}
	}
	_, err1 := s.Run(broken, cpu.BaselineConfig())
	_, err2 := s.Run(broken, cpu.BaselineConfig())
	if err1 == nil || err2 == nil {
		t.Fatal("broken kernel ran successfully")
	}
	if !errors.Is(err1, cpu.ErrValidation) {
		t.Errorf("err = %v, want ErrValidation", err1)
	}
	if err1.Error() != err2.Error() {
		t.Error("error not memoized consistently")
	}
}

func TestRunWatchdog(t *testing.T) {
	opts := suite(t).Opts
	opts.RunTimeout = time.Nanosecond
	s := derivedSuite(opts, mcfPrepared(t))
	_, err := s.Run(s.Prepared[0], cpu.BaselineConfig())
	if !errors.Is(err, cpu.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Errorf("watchdog error unlabeled: %v", err)
	}
}

// panicWriter is a trace sink that panics on its first write: a panic
// raised from inside cpu.RunContext.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("boom") }

func TestRunPanicIsolation(t *testing.T) {
	opts := suite(t).Opts
	opts.RunTimeout = 0
	s := derivedSuite(opts, mcfPrepared(t))
	cfg := cpu.BaselineConfig()
	cfg.Trace, cfg.TraceCycles = panicWriter{}, 100
	_, err := s.Run(s.Prepared[0], cfg)
	if err == nil || !strings.Contains(err.Error(), "panic in simulation") {
		t.Errorf("err = %v, want recovered panic", err)
	}
}
