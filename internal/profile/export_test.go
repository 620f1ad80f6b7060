package profile

import (
	"testing"

	"spear/internal/cfg"
	"spear/internal/mem"
	"spear/internal/prog"
)

// runPasses runs Run's two passes over p as Run does, with a store shadow
// of its own. It returns the result, pass2's dependence window (nil
// without a d-load) and the shadow, so that tests can see what the chase
// did.
func runPasses(t *testing.T, p *prog.Program, c Config) (*Result, *depWindow, *mem.Memory) {
	t.Helper()
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{
		LoadStats:   map[int]*LoadStat{},
		Deps:        map[int]map[int]uint64{},
		LoopDCycles: map[int]float64{},
		LoopIters:   map[int]uint64{},
		InstrExecs:  make([]uint64, len(p.Text)),
	}
	if err := pass1(p, c, res); err != nil {
		t.Fatal(err)
	}
	shadow := mem.NewMemory()
	d := newDepWindow(res, c.Window, len(p.Text), shadow)
	if err := pass2(p, g, c, res, d); err != nil {
		t.Fatal(err)
	}
	return res, d, shadow
}
