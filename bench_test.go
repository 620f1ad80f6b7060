// Package spear's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (run them with `go test -bench . -benchtime 1x`)
// and measure the hot paths of the simulator stack.
//
// One benchmark exists per artifact:
//
//	BenchmarkTable1Inventory        Table 1  (benchmark inventory)
//	BenchmarkFig6Speedup            Figure 6 (normalized IPC, 3 machines x 15 kernels)
//	BenchmarkTable3LongIFQ          Table 3  (SPEAR-256/128 vs branch behaviour)
//	BenchmarkFig7SeparateFU         Figure 7 (.sf machines added)
//	BenchmarkFig8MissReduction      Figure 8 (main-thread L1D miss reduction)
//	BenchmarkFig9LatencyTolerance   Figure 9 (memory-latency sweep, 6 kernels)
//
// Each iteration performs the complete experiment (compile + simulate); the
// rendered output of the final iteration is printed once so that a bench
// run doubles as a reproduction log.
package spear

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"spear/internal/asm"
	"spear/internal/bpred"
	"spear/internal/cpu"
	"spear/internal/emu"
	"spear/internal/harness"
	"spear/internal/journal"
	"spear/internal/mem"
	"spear/internal/workloads"
)

// benchSuite prepares the full 15-kernel suite once for all experiment
// benchmarks; preparation (assemble + profile + compile) is itself timed by
// BenchmarkCompileSuite.
var (
	suiteOnce sync.Once
	suiteVal  *harness.Suite
	suiteErr  error
)

func sharedSuite(b *testing.B) *harness.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = harness.NewSuiteContext(context.Background(), harness.DefaultOptions())
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

func BenchmarkTable1Inventory(b *testing.B) {
	s := sharedSuite(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = harness.RenderTable1(s.Table1())
	}
	b.StopTimer()
	fmt.Println(out)
}

// benchView sweeps the pairs one report view reads on the shared suite
// and renders the view, once per iteration.
func benchView(b *testing.B, name string) {
	s := sharedSuite(b)
	var views []harness.View
	for _, v := range harness.Views() {
		if v.Name == name {
			views = append(views, v)
		}
	}
	if len(views) != 1 {
		b.Fatalf("no view named %q", name)
	}
	var out string
	for i := 0; i < b.N; i++ {
		out = views[0].Render(s.SweepViews(context.Background(), name, views))
	}
	b.StopTimer()
	fmt.Println(out)
}

func BenchmarkFig6Speedup(b *testing.B)          { benchView(b, "fig6") }
func BenchmarkTable3LongIFQ(b *testing.B)        { benchView(b, "table3") }
func BenchmarkFig7SeparateFU(b *testing.B)       { benchView(b, "fig7") }
func BenchmarkFig8MissReduction(b *testing.B)    { benchView(b, "fig8") }
func BenchmarkFig9LatencyTolerance(b *testing.B) { benchView(b, "fig9") }

// BenchmarkMotivation runs the stride-prefetcher-vs-pre-execution
// comparison that backs the paper's introductory claim.
func BenchmarkMotivation(b *testing.B) { benchView(b, "motivation") }

// BenchmarkHybridClaim compares software-spawned against hardware-triggered
// pre-execution (the paper's central hybrid argument).
func BenchmarkHybridClaim(b *testing.B) { benchView(b, "hybrid") }

// BenchmarkAblations runs the seven design-choice ablation studies
// (prefetch range, extraction bandwidth, trigger occupancy, p-thread
// priority, region policy, p-thread context size, branch predictor) on
// the default three-kernel set.
func BenchmarkAblations(b *testing.B) {
	var out []string
	for i := 0; i < b.N; i++ {
		results, err := harness.Ablate(context.Background(), harness.DefaultOptions(), harness.DefaultAblations()...)
		if err != nil {
			b.Fatal(err)
		}
		out = out[:0]
		for _, r := range results {
			out = append(out, harness.RenderAblation(r))
		}
	}
	b.StopTimer()
	fmt.Println(strings.Join(out, "\n"))
}

// sweepSuite prepares the three-kernel suite BenchmarkSweepParallel
// sweeps (annotated, unannotated, and pointer-chasing kernels — enough
// to keep the worker pool honest without the full fifteen).
var (
	sweepSuiteOnce sync.Once
	sweepSuiteVal  *harness.Suite
	sweepSuiteErr  error
)

// BenchmarkSweepParallel measures the journaled sweep engine's wall
// clock at worker-pool widths 1/2/4/8 (run with `-bench SweepParallel
// -benchtime 1x`). Every iteration re-simulates the full (kernel,
// config) grid; the report row
// order — and therefore the serialized report — is identical at every
// width, so this measures scheduling, not semantics.
func BenchmarkSweepParallel(b *testing.B) {
	sweepSuiteOnce.Do(func() {
		opts := harness.DefaultOptions()
		opts.Kernels = []string{"mcf", "field", "pointer"}
		sweepSuiteVal, sweepSuiteErr = harness.NewSuiteContext(context.Background(), opts)
	})
	if sweepSuiteErr != nil {
		b.Fatal(sweepSuiteErr)
	}
	s := sweepSuiteVal
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s.Opts.Parallel = workers
			for i := 0; i < b.N; i++ {
				rep := s.SweepReportContext(context.Background(), "bench", harness.StandardConfigs(), nil)
				for _, row := range rep.Rows {
					if row.Error != "" || row.Skipped != "" {
						b.Fatalf("%s on %s: error %q, skipped %q", row.Kernel, row.Config, row.Error, row.Skipped)
					}
				}
			}
		})
	}
}

// ------------------------------------------------------------ per-stage
//
// The per-stage suite breaks the sweep's wall clock into its three cost
// centres — the simulator's fetch→RUU→commit hot loop, the write-ahead
// journal's fsync'd appends, and report serialization — so a
// regression flagged by `spearstat -bench` can be localized with
// `go test -bench 'Stage' -benchtime 10x`. Every benchmark reports
// allocations: the hot loop and the journal append path are supposed to
// stay allocation-light, and ReportAllocs makes a drift visible in the
// same run that measures time.

// BenchmarkStageHotLoop measures the cycle loop alone (fetch, dispatch,
// extract, issue, commit) on the mcf kernel under the SPEAR-128 machine,
// reported as ns per simulated cycle. This is the denominator of the
// cpu.stage.* attribution in BENCH documents.
func BenchmarkStageHotLoop(b *testing.B) { benchCycleLoop(b, "mcf", cpu.SPEARConfig(128, false)) }

// BenchmarkStageDeadCycles measures the cycle loop on tr under the
// baseline machine, in ns per simulated cycle. tr is a serial chase that
// waits on DRAM for about nine cycles in ten, so this is the cost of the
// loop's idle test and of the jumps over dead cycles.
func BenchmarkStageDeadCycles(b *testing.B) { benchCycleLoop(b, "tr", cpu.BaselineConfig()) }

// benchCycleLoop prepares one kernel, runs it under cfg per iteration and
// reports ns per simulated cycle.
func benchCycleLoop(b *testing.B, kernel string, cfg cpu.Config) {
	k, ok := workloads.ByName(kernel)
	if !ok {
		b.Fatalf("unknown kernel %s", kernel)
	}
	prep, err := harness.Prepare(*k, harness.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := cpu.Run(prep.Ref, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

// BenchmarkStageJournalAppend measures the write-ahead journal's append
// path — marshal, CRC frame, write, fsync — per record pair
// (started + done), the per-run journal overhead of a sweep.
func BenchmarkStageJournalAppend(b *testing.B) {
	dir := b.TempDir()
	w, err := journal.Open(dir, true)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	result := []byte(`{"cycles": 123456, "ipc": 1.23}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("bench-%d", i)
		if err := w.Append(journal.Record{Status: journal.StatusStarted, Key: key, Kernel: "mcf", Config: "SPEAR-128"}); err != nil {
			b.Fatal(err)
		}
		if err := w.Append(journal.Record{Status: journal.StatusDone, Key: key, Kernel: "mcf", Config: "SPEAR-128", Result: result}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageReportSerialize measures turning a finished sweep into
// its canonical JSON document — the byte-deterministic artifact every
// downstream tool consumes.
func BenchmarkStageReportSerialize(b *testing.B) {
	sweepSuiteOnce.Do(func() {
		opts := harness.DefaultOptions()
		opts.Kernels = []string{"mcf", "field", "pointer"}
		sweepSuiteVal, sweepSuiteErr = harness.NewSuiteContext(context.Background(), opts)
	})
	if sweepSuiteErr != nil {
		b.Fatal(sweepSuiteErr)
	}
	rep := sweepSuiteVal.SweepReportContext(context.Background(), "bench-serialize", harness.StandardConfigs(), nil)
	for _, row := range rep.Rows {
		if row.Error != "" || row.Skipped != "" {
			b.Fatalf("%s on %s: error %q, skipped %q", row.Kernel, row.Config, row.Error, row.Skipped)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileSuite times the SPEAR compiler pipeline (CFG + two
// profiling passes + slicing + attach) on one representative kernel.
func BenchmarkCompileSuite(b *testing.B) {
	k, _ := workloads.ByName("mcf")
	for i := 0; i < b.N; i++ {
		if _, err := harness.Prepare(*k, harness.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- micro

// BenchmarkCycleSimulator measures simulated instructions per second of the
// cycle core on the mcf kernel (reported as ns/instruction).
func BenchmarkCycleSimulator(b *testing.B) {
	s := sharedSuite(b)
	var prep *harness.Prepared
	for _, p := range s.Prepared {
		if p.Kernel.Name == "mcf" {
			prep = p
		}
	}
	if prep == nil {
		b.Skip("mcf not prepared")
	}
	cfg := cpu.SPEARConfig(128, false)
	b.ReportAllocs()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		res, err := cpu.Run(prep.Ref, cfg)
		if err != nil {
			b.Fatal(err)
		}
		instr += res.MainCommitted
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
}

// BenchmarkEmulator measures the functional emulator's throughput.
func BenchmarkEmulator(b *testing.B) {
	p, err := asm.Assemble("bench.s", `
main:   li r1, 0
        li r2, 1000000
loop:   addi r1, r1, 1
        xor r3, r3, r1
        slli r4, r1, 2
        add r5, r5, r4
        blt r1, r2, loop
        halt
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		m := emu.New(p)
		if err := m.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		instr += m.Count
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
}

// BenchmarkCacheHierarchy measures the two-level cache model.
func BenchmarkCacheHierarchy(b *testing.B) {
	h := mem.NewTimedHierarchy(mem.DefaultHierarchy())
	r := rand.New(rand.NewSource(1))
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = uint32(r.Intn(8 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessAt(addrs[i%len(addrs)], i%8 == 0, i%2, uint64(i))
	}
}

// BenchmarkBranchPredictor measures the bimodal predictor.
func BenchmarkBranchPredictor(b *testing.B) {
	p := bpred.New(bpred.DefaultConfig())
	for i := 0; i < b.N; i++ {
		pc := i & 1023
		taken := i&7 != 0
		p.Update(pc, taken, p.PredictBranch(pc))
	}
}

// BenchmarkAssembler measures assembling a representative kernel.
func BenchmarkAssembler(b *testing.B) {
	k, _ := workloads.ByName("gzip")
	for i := 0; i < b.N; i++ {
		if _, err := k.Build(workloads.Ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryImage measures sparse-memory writes during workload build.
func BenchmarkMemoryImage(b *testing.B) {
	m := mem.NewMemory()
	buf := make([]byte, 8)
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(buf, uint64(i))
		m.WriteBytes(uint32(i*64)&0xFF_FFFF, buf)
	}
}
