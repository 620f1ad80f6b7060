package harness

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
)

func ablationOpts() Options {
	opts := DefaultOptions()
	opts.Kernels = []string{"mcf"}
	return opts
}

// pickAblations returns the default studies cut down to the settings
// with the given labels, dropping studies left with none.
func pickAblations(labels ...string) []AblationStudy {
	var out []AblationStudy
	for _, st := range DefaultAblations() {
		var keep []AblationSetting
		for _, set := range st.Settings {
			if slices.Contains(labels, set.Label) {
				keep = append(keep, set)
			}
		}
		if keep != nil {
			st.Settings = keep
			out = append(out, st)
		}
	}
	return out
}

// mcfAblations holds the studies the assertion tests below read, run in
// one Ablate call on mcf: one suite, one baseline, eight runs. In order:
// prefetch range, extraction width, trigger occupancy, priority.
var mcfAblations []*AblationResult

func studyResult(t *testing.T, i int) *AblationResult {
	t.Helper()
	if mcfAblations == nil {
		res, err := Ablate(context.Background(), ablationOpts(), pickAblations(
			"d-cycle>=120", "extract=1", "extract=4", "occ>=0.25*IFQ", "occ>=0.75*IFQ",
			"priority=on", "priority=off")...)
		if err != nil {
			t.Fatal(err)
		}
		mcfAblations = res
	}
	res := mcfAblations[i]
	for _, p := range res.Points {
		if p.Err != nil {
			t.Fatalf("%s on %s: %v", p.Setting, p.Kernel, p.Err)
		}
	}
	return res
}

func TestAblateExtractWidth(t *testing.T) {
	res := studyResult(t, 1)
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// More extraction bandwidth can only help a bandwidth-starved PE.
	if res.Points[1].IPC < res.Points[0].IPC {
		t.Errorf("extract=4 (%.3f IPC) worse than extract=1 (%.3f)", res.Points[1].IPC, res.Points[0].IPC)
	}
	out := RenderAblation(res)
	if !strings.Contains(out, "extract=1") || !strings.Contains(out, "mcf") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestAblateTriggerOccupancy(t *testing.T) {
	for _, p := range studyResult(t, 2).Points {
		if p.Norm <= 1 {
			t.Errorf("%s: SPEAR below baseline on mcf (%.3f)", p.Setting, p.Norm)
		}
	}
}

func TestAblatePriority(t *testing.T) {
	res := studyResult(t, 3)
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	on, off := res.Points[0], res.Points[1]
	if on.Setting != "priority=on" {
		on, off = off, on
	}
	// Priority should not hurt the p-thread's effectiveness.
	if on.IPC < 0.98*off.IPC {
		t.Errorf("priority on (%.3f) notably worse than off (%.3f)", on.IPC, off.IPC)
	}
}

func TestAblatePrefetchRange(t *testing.T) {
	res := studyResult(t, 0)
	if len(res.Points) != 1 || res.Points[0].Norm <= 1 {
		t.Fatalf("unexpected points: %+v", res.Points)
	}
}

func TestAblationsRejectUnknownKernel(t *testing.T) {
	opts := DefaultOptions()
	opts.Kernels = []string{"bogus"}
	if _, err := Ablate(context.Background(), opts, pickAblations("extract=4")...); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestAblateRunsEachPairOnce counts the runs behind a compile-side and
// two machine-side studies through FaultHook, which fails every run so
// that nothing is simulated: the baseline and each machine-side setting
// run once per kernel, and SPEAR-128 once per compiler setting
// (d-cycle>=120 is the default one and reuses the default suite).
func TestAblateRunsEachPairOnce(t *testing.T) {
	var mu sync.Mutex
	calls := map[[2]string]int{}
	opts := DefaultOptions()
	opts.Kernels = []string{"mcf", "field"}
	opts.FaultHook = func(kernel, config string) error {
		mu.Lock()
		defer mu.Unlock()
		calls[[2]string{kernel, config}]++
		return errors.New("counted")
	}
	res, err := Ablate(context.Background(), opts, pickAblations(
		"d-cycle>=60", "d-cycle>=120", "extract=2", "extract=4", "priority=on", "priority=off")...)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"baseline": 1, "SPEAR-128": 2, "extract=2": 1, "extract=4": 1, "priority=on": 1, "priority=off": 1}
	for _, k := range opts.Kernels {
		for config, n := range want {
			if got := calls[[2]string{k, config}]; got != n {
				t.Errorf("%s on %s ran %d times, want %d", k, config, got, n)
			}
		}
	}
	if len(calls) != len(want)*len(opts.Kernels) {
		t.Errorf("runs = %v", calls)
	}
	for _, r := range res {
		if r.Interrupted {
			t.Errorf("%s: marked interrupted without a cancellation", r.Name)
		}
		for _, p := range r.Points {
			if p.Err == nil || !strings.Contains(p.Err.Error(), "counted") {
				t.Errorf("%s on %s: err = %v, want the injected fault", p.Setting, p.Kernel, p.Err)
			}
		}
		if out := RenderAblation(r); !strings.Contains(out, "ERROR") {
			t.Errorf("failed runs not rendered as errors:\n%s", out)
		}
	}
}

// TestAblateCancelledIsInterrupted cancels at the first run: every
// point, including those of the compiler setting whose suite is never
// built, is skipped and every study is marked interrupted.
func TestAblateCancelledIsInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := ablationOpts()
	opts.FaultHook = func(kernel, config string) error {
		cancel()
		return nil
	}
	res, err := Ablate(ctx, opts, pickAblations("d-cycle>=60", "d-cycle>=120", "extract=1")...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.Interrupted {
			t.Errorf("%s: not marked interrupted", r.Name)
		}
		for _, p := range r.Points {
			if !errors.Is(p.Err, ErrSkipped) {
				t.Errorf("%s on %s: err = %v, want a skip", p.Setting, p.Kernel, p.Err)
			}
		}
		if out := RenderAblation(r); !strings.Contains(out, SkipInterrupted) {
			t.Errorf("skipped points not rendered:\n%s", out)
		}
	}
}
