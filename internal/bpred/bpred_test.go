package bpred

import (
	"math/rand"
	"testing"
)

func TestBimodalLearnsBias(t *testing.T) {
	p := New(DefaultConfig())
	pc := 100
	// Train taken.
	for i := 0; i < 10; i++ {
		p.Update(pc, true, p.PredictBranch(pc))
	}
	if !p.PredictBranch(pc) {
		t.Error("predictor did not learn a taken bias")
	}
	// Two not-taken outcomes flip a saturated counter back past the midpoint.
	p.Update(pc, false, true)
	p.Update(pc, false, true)
	p.Update(pc, false, true)
	if p.PredictBranch(pc) {
		t.Error("predictor did not unlearn after repeated not-taken")
	}
}

func TestBimodalSaturation(t *testing.T) {
	p := New(Config{TableSize: 4, BTBSize: 4, RASDepth: 2})
	pc := 0
	for i := 0; i < 100; i++ {
		p.Update(pc, true, true)
	}
	// One not-taken must not flip a saturated counter.
	p.Update(pc, false, true)
	if !p.PredictBranch(pc) {
		t.Error("single opposite outcome flipped saturated counter")
	}
}

func TestHitRatioAccounting(t *testing.T) {
	p := New(DefaultConfig())
	pc := 5
	for i := 0; i < 8; i++ {
		pred := p.PredictBranch(pc)
		p.Update(pc, i%2 == 0, pred) // alternating: bimodal does poorly
	}
	if p.Stats.Lookups != 8 {
		t.Errorf("lookups = %d", p.Stats.Lookups)
	}
	if p.Stats.Correct > 6 {
		t.Errorf("alternating branch: %d of 8 correct, suspiciously high", p.Stats.Correct)
	}
	p.ResetStats()
	if p.Stats.Lookups != 0 || p.Stats.Correct != 0 {
		t.Error("ResetStats failed")
	}
}

func TestTableAliasing(t *testing.T) {
	p := New(Config{TableSize: 8, BTBSize: 8, RASDepth: 2})
	// pc 1 and pc 9 share a counter in an 8-entry table.
	for i := 0; i < 4; i++ {
		p.Update(1, true, p.PredictBranch(1))
	}
	if !p.PredictBranch(9) {
		t.Error("aliased PC did not observe shared counter")
	}
}

func TestBTB(t *testing.T) {
	p := New(DefaultConfig())
	if _, ok := p.PredictIndirect(42); ok {
		t.Error("cold BTB hit")
	}
	p.UpdateIndirect(42, 1000)
	if tgt, ok := p.PredictIndirect(42); !ok || tgt != 1000 {
		t.Errorf("BTB = %d,%v", tgt, ok)
	}
	// A conflicting PC evicts.
	p.UpdateIndirect(42+512, 2000)
	if _, ok := p.PredictIndirect(42); ok {
		t.Error("BTB tag check failed: stale entry returned after conflict")
	}
}

func TestRAS(t *testing.T) {
	p := New(DefaultConfig())
	if _, ok := p.PopRAS(); ok {
		t.Error("empty RAS popped a value")
	}
	p.PushRAS(10)
	p.PushRAS(20)
	if v, ok := p.PopRAS(); !ok || v != 20 {
		t.Errorf("pop = %d,%v, want 20", v, ok)
	}
	if v, ok := p.PopRAS(); !ok || v != 10 {
		t.Errorf("pop = %d,%v, want 10", v, ok)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	p := New(Config{TableSize: 4, BTBSize: 4, RASDepth: 2})
	p.PushRAS(1)
	p.PushRAS(2)
	p.PushRAS(3) // overwrites 1
	if v, _ := p.PopRAS(); v != 3 {
		t.Errorf("pop = %d, want 3", v)
	}
	if v, _ := p.PopRAS(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{TableSize: 3, BTBSize: 4, RASDepth: 1},
		{TableSize: 4, BTBSize: 3, RASDepth: 1},
		{TableSize: 0, BTBSize: 4, RASDepth: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPredictorOnBiasedRandomStream(t *testing.T) {
	// A 90%-taken branch should be predicted with roughly 90% accuracy.
	p := New(DefaultConfig())
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		taken := r.Float64() < 0.9
		p.Update(77, taken, p.PredictBranch(77))
	}
	if hr := float64(p.Stats.Correct) / float64(p.Stats.Lookups); hr < 0.85 || hr > 0.95 {
		t.Errorf("hit ratio on 90%% biased stream = %v", hr)
	}
}
