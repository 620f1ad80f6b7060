package harness

import (
	"context"
	"testing"

	"spear/internal/emu"
)

// The full grid, built at most once per test binary and shared by the
// differential oracle and the goldens. The suite and its sweep are built
// apart, so a test that reads only the suite does not sweep it.
var (
	fullSuite  *Suite
	fullReport *Report
)

// oracleSuite returns the suite the oracle and the goldens read: every
// kernel in the default mode that tier-1 CI uses, the shared two-kernel
// suite (one annotated kernel, one not) under -short and under the race
// detector, which slows the cycle core by an order of magnitude.
func oracleSuite(t *testing.T) *Suite {
	t.Helper()
	if testing.Short() || raceEnabled {
		return suite(t)
	}
	if fullSuite == nil {
		s, err := NewSuiteContext(context.Background(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		fullSuite = s
	}
	return fullSuite
}

// oracleReport returns the one sweep of oracleSuite's kernels on every
// StandardConfigs machine. Under -short and race it is the shared sweep
// of every view's pairs, which includes those machines.
func oracleReport(t *testing.T) *Report {
	t.Helper()
	if testing.Short() || raceEnabled {
		return viewsReport(t)
	}
	if fullReport == nil {
		fullReport = oracleSuite(t).SweepReportContext(context.Background(), "differential-oracle", StandardConfigs(), nil)
	}
	return fullReport
}

// TestDifferentialOracleSuiteWide is the suite-wide differential oracle:
// for every kernel under every StandardConfigs machine, the cycle
// simulator's final architectural state — retired register file plus
// memory image, fingerprinted by FinalStateHash — and its committed
// instruction count must equal an independent functional emulation of
// the same binary. This generalizes the per-run containment check of the
// fault-injection harness into one table-driven sweep over the whole
// evaluation grid, and doubles as an end-to-end exercise of the parallel
// sweep engine on real kernels.
func TestDifferentialOracleSuiteWide(t *testing.T) {
	s, rep := oracleSuite(t), oracleReport(t)
	for name, perr := range s.Failed {
		t.Errorf("kernel %s failed to prepare: %v", name, perr)
	}

	// One independent emulator run per kernel yields the reference state;
	// the sweep (on the parallel engine) yields every simulator state.
	type ref struct{ hash, count uint64 }
	refs := make(map[string]ref, len(s.Prepared))
	for _, p := range s.Prepared {
		m := emu.New(p.Ref)
		if err := m.Run(50_000_000); err != nil {
			t.Fatalf("%s: reference emulation: %v", p.Kernel.Name, err)
		}
		refs[p.Kernel.Name] = ref{hash: m.StateHash(), count: m.Count}
	}

	if rep.Interrupted {
		t.Fatal("oracle sweep reported interrupted")
	}
	for _, p := range s.Prepared {
		want := refs[p.Kernel.Name]
		for _, cfg := range StandardConfigs() {
			t.Run(p.Kernel.Name+"/"+cfg.Name, func(t *testing.T) {
				row := rep.Lookup(p.Kernel.Name, cfg.Name)
				if row == nil {
					t.Fatal("row missing from the sweep report")
				}
				if row.Error != "" || row.Skipped != "" {
					t.Fatalf("run did not complete: error %q, skipped %q", row.Error, row.Skipped)
				}
				res := row.Result
				if res.MainCommitted != want.count {
					t.Errorf("committed %d instructions, emulator retired %d", res.MainCommitted, want.count)
				}
				if res.FinalStateHash != want.hash {
					t.Errorf("final state hash %#x, emulator %#x (registers+memory diverged)", res.FinalStateHash, want.hash)
				}
			})
		}
	}
}
