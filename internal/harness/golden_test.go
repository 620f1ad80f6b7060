package harness

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"spear/internal/cpu"
	"spear/internal/mem"
	"spear/internal/prog"
	"spear/internal/slicer"
	"spear/internal/spearcc"
)

// The behaviour goldens pin what a refactor must not change. The cycle
// golden holds the deterministic counters of every oracle-grid run; the
// compile golden holds a digest of every kernel's SPEAR binary and of the
// profile it was sliced from. Both read rows the differential oracle
// already built, so they add no preparation and no simulation. In the
// default mode they cover every row in the file; under -short and the
// race detector, the rows of the smaller grid. Regenerate both with
// -update in the default mode.

// checkGolden compares got (one line per row, keyed by the text before
// the first tab) with the golden file at path. With full, every golden
// row must also be present in got; -update rewrites the file from got.
func checkGolden(t *testing.T, path string, got map[string]string, full bool) {
	t.Helper()
	if *update {
		if !full {
			t.Fatal("-update needs the full grid; run it without -short and without -race")
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			b.WriteString(got[k] + "\n")
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, _, _ := strings.Cut(sc.Text(), "\t")
		want[key] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for k, line := range got {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: no golden row (run with -update if the row is new)", k)
		case w != line:
			t.Errorf("%s drifted from %s:\n got  %s\n want %s", k, path, line, w)
		}
	}
	if full {
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: golden row not produced", k)
			}
		}
	}
}

// cycleLine renders the deterministic counters of one run: cycles,
// commits and branch hits, the L1D and L2 statistics (per-thread
// accesses and misses, evictions, write-backs), the prefetch fill
// classes, trigger sessions and the p-thread fault counts.
func cycleLine(kernel string, r *cpu.Result) string {
	cache := func(c mem.CacheStats) string {
		return fmt.Sprintf("%d/%d/%d/%d/%d/%d", c.Accesses[mem.TidMain], c.Accesses[mem.TidHelper],
			c.Misses[mem.TidMain], c.Misses[mem.TidHelper], c.Evicted, c.WriteBk)
	}
	pf, f := r.Prefetch.PrefetchClass, r.PFault
	return fmt.Sprintf("%s %s\tcycles=%d committed=%d bhits=%d l1d=%s l2=%s pf=%d/%d/%d/%d/%d triggers=%d pfault=%d/%d/%d/%d/%d/%d",
		kernel, r.Config, r.Cycles, r.MainCommitted, r.BranchHits, cache(r.L1D), cache(r.L2),
		pf.Fills, pf.Timely, pf.Late, pf.Useless, pf.Harmful, r.Triggers,
		f.OOB, f.Misaligned, f.DivZero, f.Budget, f.Disabled, f.Suppressed)
}

// TestCycleGolden pins the cycle counters of every kernel and every
// corpus program on every StandardConfigs machine the oracles sweep.
func TestCycleGolden(t *testing.T) {
	got := map[string]string{}
	add := func(s *Suite, rep *Report, cfgs []cpu.Config) {
		for _, p := range s.Prepared {
			for _, cfg := range cfgs {
				row := rep.Lookup(p.Kernel.Name, cfg.Name)
				if row == nil || row.Result == nil {
					t.Fatalf("%s on %s: run did not complete: %+v", p.Kernel.Name, cfg.Name, row)
				}
				line := cycleLine(p.Kernel.Name, row.Result)
				key, _, _ := strings.Cut(line, "\t")
				got[key] = line
			}
		}
	}
	add(oracleSuite(t), oracleReport(t), StandardConfigs())
	add(corpusSweep(t))
	checkGolden(t, filepath.Join("testdata", "cycles.golden"), got, !testing.Short() && !raceEnabled)
}

// compileLine renders a digest of one compiled kernel: the SHA-256 of
// its SPEAR binary's encoding and of its profile's dependence edges,
// dumped one "consumer producer weight" line per edge in sorted order.
func compileLine(t *testing.T, name string, ref *prog.Program, rep *spearcc.Report) string {
	t.Helper()
	bin, err := prog.Marshal(ref)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	deps := rep.ProfileData.Deps
	var dump strings.Builder
	for _, c := range sortedKeys(deps) {
		for _, pr := range sortedKeys(deps[c]) {
			fmt.Fprintf(&dump, "%d %d %d\n", c, pr, deps[c][pr])
		}
	}
	return fmt.Sprintf("%s\tprog=%x deps=%x", name, sha256.Sum256(bin), sha256.Sum256([]byte(dump.String())))
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// sliceSettings returns the slicer options of each slicer-side ablation
// setting that differs from the default options, by label.
func sliceSettings() map[string]slicer.Config {
	def := DefaultOptions().Compiler.Slice
	out := map[string]slicer.Config{}
	for _, st := range DefaultAblations() {
		for _, set := range st.Settings {
			if c := def; set.Slice != nil {
				if set.Slice(&c); c != def {
					out[set.Label] = c
				}
			}
		}
	}
	return out
}

// TestCompileGolden pins every kernel's SPEAR binary and profile, and
// the binaries of mcf, art and matrix under each non-default slicer
// setting. The setting rows were generated by a full Prepare per
// setting and are recomputed here by re-slicing the default Prepared,
// so the golden also proves the re-slice equal to a full compile.
func TestCompileGolden(t *testing.T) {
	got := map[string]string{}
	for _, p := range oracleSuite(t).Prepared {
		got[p.Kernel.Name] = compileLine(t, p.Kernel.Name, p.Ref, p.Report)
		if !slices.Contains(defaultAblationKernels, p.Kernel.Name) {
			continue
		}
		for label, c := range sliceSettings() {
			ref, rep, err := spearcc.Slice(p.Ref, p.Report, c)
			if err != nil {
				t.Fatal(err)
			}
			name := p.Kernel.Name + "@" + label
			got[name] = compileLine(t, name, ref, rep)
		}
	}
	checkGolden(t, filepath.Join("testdata", "compile.golden"), got, !testing.Short() && !raceEnabled)
}
