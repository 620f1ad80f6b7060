package harness

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/cpu"
	"spear/internal/obs"
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
// tests can change options or inject broken kernels without touching the
// shared suite.
func derivedSuite(opts Options, prepared ...*Prepared) *Suite {
	return &Suite{Opts: opts, Prepared: prepared, Failed: map[string]error{}}
}

// paperViews returns the views spearbench -experiment all renders.
func paperViews() []View {
	var out []View
	for _, v := range Views() {
		if v.Paper {
			out = append(out, v)
		}
	}
	return out
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
	rows := s.FaultSuite(context.Background(), 7)
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

// TestFaultSuiteCancelledMidwayIsSkipped cancels from FaultHook at the
// second injected run: the first run keeps its verdict, and the stopped
// run and the ones after it are skipped rows, not NO verdicts.
func TestFaultSuiteCancelledMidwayIsSkipped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := suite(t).Opts
	calls := 0
	opts.FaultHook = func(kernel, config string) error {
		if calls++; calls == 2 {
			cancel()
		}
		return nil
	}
	rows := derivedSuite(opts, mcfPrepared(t)).FaultSuite(ctx, 7)
	if len(rows) != len(FaultClasses()) {
		t.Fatalf("rows = %d, want one per fault class", len(rows))
	}
	if r := rows[0]; r.Skipped != "" || !r.Contained() {
		t.Errorf("first run: skipped %q, contained %v (err %v)", r.Skipped, r.Contained(), r.Err)
	}
	for _, r := range rows[1:] {
		if r.Skipped != SkipInterrupted || r.Err != nil || r.Res != nil {
			t.Errorf("%s: skipped %q, err %v, want a skipped row", r.Class, r.Skipped, r.Err)
		}
	}
	out := RenderFaultSuite(rows)
	if strings.Contains(out, " NO ") || !strings.Contains(out, "(1/1 contained, 3 skipped)") {
		t.Errorf("render:\n%s", out)
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
	rep := s.SweepViews(context.Background(), "partial", paperViews())
	fig6 := Figure6(rep)

	type rowView struct {
		name string
		err  error
	}
	checks := []struct {
		name string
		rows func() ([]rowView, string)
	}{
		{"fig6", func() ([]rowView, string) {
			var out []rowView
			for _, r := range fig6 {
				out = append(out, rowView{r.Name, r.Err})
				if r.Err == nil && (r.Base == nil || r.Norm128 <= 0) {
					t.Errorf("fig6 %s: clean row missing results", r.Name)
				}
			}
			return out, RenderFigure6(fig6)
		}},
		{"table3", func() ([]rowView, string) {
			rows := Table3(fig6)
			var out []rowView
			for _, r := range rows {
				out = append(out, rowView{r.Name, r.Err})
				if r.Err == nil && r.IPB <= 0 {
					t.Errorf("table3 %s: clean row missing results", r.Name)
				}
			}
			return out, RenderTable3(rows)
		}},
		{"fig7", func() ([]rowView, string) {
			rows := Figure7(rep)
			var out []rowView
			for _, r := range rows {
				out = append(out, rowView{r.Name, r.Err})
				if r.Err == nil && r.NormSf128 <= 0 {
					t.Errorf("fig7 %s: clean row missing results", r.Name)
				}
			}
			return out, RenderFigure7(rows)
		}},
		{"fig8", func() ([]rowView, string) {
			rows := Figure8(fig6)
			var out []rowView
			for _, r := range rows {
				out = append(out, rowView{r.Name, r.Err})
			}
			return out, RenderFigure8(rows)
		}},
	}
	for _, c := range checks {
		rows, render := c.rows()
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

	// Figure 9 reads only mcf from this suite; its series must carry the
	// error rather than abort.
	series := Figure9(rep)
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

// TestViewsReportOneErrorPerPair pins that a failing pair is simulated
// once however many views read it, and that every view reports the same
// error from its one report row.
func TestViewsReportOneErrorPerPair(t *testing.T) {
	s := brokenSuite(t)
	runs := map[string]int{}
	var mu sync.Mutex
	s.Opts.FaultHook = func(kernel, config string) error {
		mu.Lock()
		runs[kernel+"/"+config]++
		mu.Unlock()
		return nil
	}
	rep := s.SweepViews(context.Background(), "errors", paperViews())
	for pair, n := range runs {
		if n != 1 {
			t.Errorf("%s simulated %d times, want once", pair, n)
		}
	}
	row := rep.Lookup("mcf", "baseline")
	if row == nil || !strings.Contains(row.Error, cpu.ErrValidation.Error()) {
		t.Fatalf("broken pair row = %+v, want a validation error", row)
	}
	fig6 := Figure6(rep)
	const mcf = 1 // brokenSuite prepares field, then mcf
	if rep.Kernels[mcf] != "mcf" {
		t.Fatalf("kernels = %v", rep.Kernels)
	}
	viewErrs := map[string]error{
		"fig6":   fig6[mcf].Err,
		"table3": Table3(fig6)[mcf].Err,
		"fig7":   Figure7(rep)[mcf].Err,
		"fig8":   Figure8(fig6)[mcf].Err,
	}
	for view, err := range viewErrs {
		if err == nil || err.Error() != row.Error {
			t.Errorf("%s: mcf error %v, want the report row's %q", view, err, row.Error)
		}
	}
	// Figure 9's series stops at its first point, the shortest latency.
	first := rep.Lookup("mcf", fig9PointConfigs(Fig9Latencies[0])[0].Name)
	if err := Figure9(rep)[0].Err; first == nil || err == nil || err.Error() != first.Error {
		t.Errorf("fig9: mcf error %v, want the first latency point's row %+v", err, first)
	}
}

func TestRunWatchdog(t *testing.T) {
	opts := suite(t).Opts
	opts.RunTimeout = time.Nanosecond
	s := derivedSuite(opts, mcfPrepared(t))
	rep := s.SweepReportContext(context.Background(), "watchdog", []cpu.Config{cpu.BaselineConfig()}, nil)
	row := rep.Rows[0]
	if rep.Interrupted || row.Skipped != "" || !strings.Contains(row.Error, cpu.ErrInterrupted.Error()) {
		t.Fatalf("row %+v (report interrupted %v), want an ErrInterrupted error row", row, rep.Interrupted)
	}
	if !strings.Contains(row.Error, "watchdog") {
		t.Errorf("watchdog error unlabeled: %v", row.Error)
	}
}

// panicWriter is a trace destination that panics on its first write: a panic
// raised from inside cpu.RunContext.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("boom") }

func TestRunPanicIsolation(t *testing.T) {
	opts := suite(t).Opts
	opts.RunTimeout = 0
	s := derivedSuite(opts, mcfPrepared(t))
	cfg := cpu.BaselineConfig()
	cfg.Events, cfg.EventCycles = obs.NewText(panicWriter{}), 100
	rep := s.SweepReportContext(context.Background(), "panic", []cpu.Config{cfg}, nil)
	if row := rep.Rows[0]; !strings.Contains(row.Error, "panic in simulation") {
		t.Errorf("row %+v, want recovered panic", row)
	}
}
