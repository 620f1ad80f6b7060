package harness

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spear/internal/asm"
	"spear/internal/cpu"
	"spear/internal/emu"
	"spear/internal/prog"
	"spear/internal/progen"
)

// The curated generated corpus: a handful of generator outputs committed
// as standalone .spisa files under testdata/corpus and promoted to
// permanent members of the differential-oracle grid. The committed files
// — not the generator — are the oracle inputs, so they keep guarding the
// simulator even if the generator's output drifts; the golden test below
// documents each file's provenance and fails loudly when the generator
// changes (regenerate deliberately with -update, which also invalidates
// saved fuzz seeds).
var corpusEntries = []struct {
	file string
	seed int64
	spec func() progen.Spec
}{
	{"corpus_chase.spisa", 101, func() progen.Spec {
		s := progen.Presets()["chase"]
		s.Iters = 300
		return s
	}},
	{"corpus_branchy.spisa", 102, func() progen.Spec { return progen.Presets()["branchy"] }},
	{"corpus_membound.spisa", 103, func() progen.Spec {
		s := progen.Presets()["membound"]
		s.Iters = 300
		return s
	}},
	{"corpus_fp.spisa", 104, func() progen.Spec { return progen.Presets()["fp"] }},
	{"corpus_deep.spisa", 105, func() progen.Spec { return progen.Presets()["deep"] }},
	{"corpus_mixed.spisa", 106, func() progen.Spec { return progen.RandomSpec(106) }},
}

func corpusPath(file string) string { return filepath.Join("testdata", "corpus", file) }

// TestCorpusGolden pins each corpus file to its generating (seed, spec)
// pair, byte for byte.
func TestCorpusGolden(t *testing.T) {
	for _, e := range corpusEntries {
		t.Run(e.file, func(t *testing.T) {
			got, err := progen.Source(e.seed, e.spec(), progen.Ref)
			if err != nil {
				t.Fatal(err)
			}
			path := corpusPath(e.file)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing corpus file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("generator output for %s drifted from the committed corpus (re-run with -update if deliberate)", e.file)
			}
		})
	}
}

// corpusGrid holds the committed corpus programs as a static suite and
// their one sweep, shared by the corpus oracle and the cycle golden.
var corpusGrid struct {
	s    *Suite
	rep  *Report
	cfgs []cpu.Config
}

// corpusSweep returns the corpus suite, its sweep and the machines swept:
// every corpus program on every standard machine, or the first two on
// baseline and SPEAR-128 under -short and the race detector.
func corpusSweep(t *testing.T) (*Suite, *Report, []cpu.Config) {
	t.Helper()
	if corpusGrid.s != nil {
		return corpusGrid.s, corpusGrid.rep, corpusGrid.cfgs
	}
	files, err := filepath.Glob(corpusPath("*.spisa"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files found (run TestCorpusGolden with -update): %v", err)
	}
	sort.Strings(files)
	cfgs := StandardConfigs()
	if testing.Short() || raceEnabled {
		files = files[:2]
		cfgs = []cpu.Config{cpu.BaselineConfig(), cpu.SPEARConfig(128, false)}
	}
	var progs []*prog.Program
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := asm.Assemble(filepath.Base(path), string(src))
		if err != nil {
			t.Fatalf("corpus file %s no longer assembles: %v", path, err)
		}
		progs = append(progs, p)
	}
	s := NewStaticSuite(DefaultOptions(), progs...)
	corpusGrid.s, corpusGrid.rep, corpusGrid.cfgs = s, s.SweepReportContext(context.Background(), "corpus", cfgs, nil), cfgs
	return corpusGrid.s, corpusGrid.rep, corpusGrid.cfgs
}

// TestDifferentialOracleCorpus runs every committed corpus program
// through the differential oracle: on each standard machine, the cycle
// simulator's final architectural state and commit count must match an
// independent functional emulation. This is the corpus's real job —
// TestDifferentialOracleSuiteWide covers the fifteen hand kernels; these
// six cover generated control/memory shapes no hand kernel exercises.
func TestDifferentialOracleCorpus(t *testing.T) {
	s, rep, cfgs := corpusSweep(t)
	for _, p := range s.Prepared {
		t.Run(p.Kernel.Name, func(t *testing.T) {
			m := emu.New(p.Ref)
			if err := m.Run(50_000_000); err != nil {
				t.Fatalf("reference emulation: %v", err)
			}
			wantHash, wantCount := m.StateHash(), m.Count
			for _, cfg := range cfgs {
				row := rep.Lookup(p.Kernel.Name, cfg.Name)
				if row == nil || row.Result == nil {
					t.Fatalf("%s: run did not complete: %+v", cfg.Name, row)
				}
				res := row.Result
				if res.MainCommitted != wantCount {
					t.Errorf("%s: committed %d instructions, emulator retired %d", cfg.Name, res.MainCommitted, wantCount)
				}
				if res.FinalStateHash != wantHash {
					t.Errorf("%s: final state hash %#x, emulator %#x", cfg.Name, res.FinalStateHash, wantHash)
				}
			}
		})
	}
}

// TestCorpusEntriesDistinct guards the curation itself: entries must use
// distinct files and seeds, and each program must be non-trivial.
func TestCorpusEntriesDistinct(t *testing.T) {
	seen := map[string]bool{}
	seeds := map[int64]bool{}
	for _, e := range corpusEntries {
		if seen[e.file] || seeds[e.seed] {
			t.Errorf("duplicate corpus entry %s / seed %d", e.file, e.seed)
		}
		seen[e.file], seeds[e.seed] = true, true
		p, err := progen.Generate(e.seed, e.spec())
		if err != nil {
			t.Fatalf("%s: %v", e.file, err)
		}
		if len(p.Text) < 50 {
			t.Errorf("%s: only %d instructions — too trivial for the oracle grid", e.file, len(p.Text))
		}
	}
	if len(corpusEntries) < 5 {
		t.Errorf("corpus has %d entries, want at least 5", len(corpusEntries))
	}
}
