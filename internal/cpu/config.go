// Package cpu implements the cycle-level out-of-order SMT core of the
// SPEAR paper: an 8-wide superscalar with a Register Update Unit (RUU),
// an Instruction Fetch Queue (IFQ) front end, a bimodal branch predictor,
// and the SPEAR additions — the P-thread Table (PT), pre-decode d-load
// detection (PD), the p-thread extractor (PE), trigger logic with live-in
// copying, and a second hardware context that runs the p-thread with issue
// priority. The baseline superscalar of the paper's evaluation is the same
// core with SPEAR disabled.
//
// The simulator is execution-driven on the main thread's correct path (a
// functional oracle steps at fetch), with wrong-path fetch modelled by
// walking the static code along the predictor's chosen path until the
// mispredicted branch resolves. P-thread instructions are evaluated
// functionally at extraction on the p-thread's private register file and
// scheduled through the shared (or dedicated, in .sf mode) function units.
package cpu

import (
	"fmt"

	"spear/internal/bpred"
	"spear/internal/isa"
	"spear/internal/mem"
	"spear/internal/obs"
	"spear/internal/perf"
)

// Config describes one machine configuration (Table 2 plus SPEAR knobs).
type Config struct {
	Name string

	FetchWidth  int // instructions fetched into the IFQ per cycle
	DecodeWidth int // decode/dispatch slots per cycle (shared with the PE)
	IssueWidth  int
	CommitWidth int

	IFQSize  int // 128 or 256 in the paper
	RUUSize  int // main-thread RUU entries (128 in the paper)
	PRUUSize int // p-thread context RUU entries
	LSQSize  int // load/store queue entries per thread

	IntALU    int
	IntMulDiv int
	FPALU     int
	FPMulDiv  int
	MemPorts  int

	// MispredictPenalty is the fetch-redirect bubble after a branch
	// resolves mispredicted (on top of the pipeline refill itself).
	MispredictPenalty int

	Hierarchy mem.HierarchyConfig
	Predictor bpred.Config

	// SPEAR enables the p-thread front end. With it off the PT is never
	// consulted and the machine is the baseline superscalar.
	SPEAR bool
	// SoftwareTrigger models the *static* pre-execution approach SPEAR
	// argues against (Section 2.3): every trigger requires software
	// intervention — finding a free context, assigning it, copying
	// live-ins with ordinary instructions — which stalls the main
	// thread's dispatch for SpawnOverhead cycles. SPEAR's contribution
	// is doing all of that in hardware for free.
	SoftwareTrigger bool
	// SpawnOverhead is the main-thread dispatch stall per software
	// trigger (cycles).
	SpawnOverhead int
	// StridePrefetch adds a PC-indexed stride prefetcher at the L1D (the
	// conventional technique the paper's introduction argues against).
	// Orthogonal to SPEAR; used by the motivation experiment.
	StridePrefetch bool
	// StrideDegree is how many strides ahead the prefetcher runs.
	StrideDegree int
	// SeparateFUs gives the p-thread context private copies of every
	// ALU pool (the paper's .sf models); memory ports stay shared.
	SeparateFUs bool
	// ExtractWidth is the PE extraction bandwidth (issue width / 2).
	ExtractWidth int
	// ScanWidth is how many IFQ entries the PE can scan per cycle while
	// hunting for marked instructions.
	ScanWidth int
	// TriggerDrainCycles models the wait for the decode stage to drain
	// to a deterministic state before live-ins are copied.
	TriggerDrainCycles int
	// TriggerFraction is the IFQ occupancy (as a fraction of IFQSize)
	// required for a d-load detection to arm a trigger. The paper
	// empirically uses one half.
	TriggerFraction float64
	// PThreadPriority gives p-thread instructions scheduling priority at
	// issue (Section 3.3). Disabling it is an ablation knob.
	PThreadPriority bool

	// PSessionBudget caps how many instructions one pre-execution session
	// may extract before it is squashed as a runaway (PFaultBudget).
	// Chaining onto the next d-load resets the count. 0 disables the cap.
	PSessionBudget int
	// PSessionCycleBudget caps how many cycles one session may stay
	// active before it is squashed as a runaway. 0 disables the cap.
	PSessionCycleBudget uint64
	// PFaultThreshold is how many consecutive faulted sessions disable a
	// p-thread (exponential backoff). 0 disables the backoff machinery:
	// faults are still contained, but the p-thread always re-arms.
	PFaultThreshold int
	// PFaultBackoff is the initial disable window in cycles; each disable
	// doubles it up to PFaultBackoffMax, and each clean session halves it.
	PFaultBackoff    uint64
	PFaultBackoffMax uint64

	// PTextOverride substitutes the instruction the PE sees for the given
	// static pc, modeling a corrupted P-thread Table image (fault
	// injection): the main thread always decodes the program's real text,
	// while the p-thread extracts the override. Nil in normal operation.
	PTextOverride map[int]isa.Instruction

	// MaxCycles aborts a run that stopped making progress.
	MaxCycles uint64

	// Events, when non-nil, receives the structured pipeline event stream
	// for the first EventCycles cycles (0 = the whole run). The simulator
	// flushes buffered events before Run returns but never closes the
	// writer — the caller owns it. A write error fails the run.
	Events      obs.Writer
	EventCycles uint64

	// MetricsInterval, when non-zero, samples interval metrics (IPC,
	// queue occupancies, miss rates, p-thread activity) every that many
	// cycles into Result.Intervals.
	MetricsInterval uint64

	// Perf, when non-nil, turns on sampled stage timing: the run loop
	// reads the clock between stages every 61st cycle, splits each
	// 64K-cycle window's host time over per-stage buckets in proportion
	// to those samples, publishes them to the registry's cpu.* metrics,
	// and rolls them up into Result.Timing. Nil (the default) costs one
	// predictable branch per cycle and one per stage.
	Perf *perf.Registry
}

// BaselineConfig returns the paper's baseline superscalar (Table 2).
func BaselineConfig() Config {
	return Config{
		Name:               "baseline",
		FetchWidth:         8,
		DecodeWidth:        8,
		IssueWidth:         8,
		CommitWidth:        8,
		IFQSize:            128,
		RUUSize:            128,
		PRUUSize:           128,
		LSQSize:            64,
		IntALU:             4,
		IntMulDiv:          1,
		FPALU:              4,
		FPMulDiv:           1,
		MemPorts:           2,
		MispredictPenalty:  3,
		Hierarchy:          mem.DefaultHierarchy(),
		Predictor:          bpred.DefaultConfig(),
		SPEAR:              false,
		ExtractWidth:       4,
		ScanWidth:          32,
		TriggerDrainCycles: 2,
		TriggerFraction:    0.5,
		PThreadPriority:    true,
		SpawnOverhead:      24,
		StrideDegree:       2,
		PSessionBudget:     512,
		PFaultThreshold:    4,
		PFaultBackoff:      2048,
		PFaultBackoffMax:   1 << 20,
		MaxCycles:          2_000_000_000,
	}
}

// SoftwareTriggerConfig returns a SPEAR machine whose triggers are spawned
// by software (the static approach's overhead model).
func SoftwareTriggerConfig(ifqSize int) Config {
	c := SPEARConfig(ifqSize, false)
	c.SoftwareTrigger = true
	c.Name = fmt.Sprintf("SW-trigger-%d", ifqSize)
	return c
}

// StrideConfig returns the baseline superscalar augmented with the
// conventional stride prefetcher.
func StrideConfig(degree int) Config {
	c := BaselineConfig()
	c.StridePrefetch = true
	c.StrideDegree = degree
	c.Name = fmt.Sprintf("stride-%d", degree)
	return c
}

// SPEARConfig returns a SPEAR machine with the given IFQ size and
// (optionally) separate functional units, named like the paper's models:
// SPEAR-128, SPEAR-256, SPEAR.sf-128, SPEAR.sf-256.
func SPEARConfig(ifqSize int, separateFUs bool) Config {
	c := BaselineConfig()
	c.SPEAR = true
	c.IFQSize = ifqSize
	c.SeparateFUs = separateFUs
	if separateFUs {
		c.Name = fmt.Sprintf("SPEAR.sf-%d", ifqSize)
	} else {
		c.Name = fmt.Sprintf("SPEAR-%d", ifqSize)
	}
	return c
}

// Validate rejects configurations the pipeline cannot run.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth <= 0 || c.DecodeWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0:
		return fmt.Errorf("cpu %s: widths must be positive", c.Name)
	case c.IFQSize <= 1:
		return fmt.Errorf("cpu %s: IFQ size %d too small", c.Name, c.IFQSize)
	case c.RUUSize <= 0 || c.PRUUSize <= 0 || c.LSQSize <= 0:
		return fmt.Errorf("cpu %s: queue sizes must be positive", c.Name)
	case c.IntALU <= 0 || c.FPALU <= 0 || c.IntMulDiv <= 0 || c.FPMulDiv <= 0 || c.MemPorts <= 0:
		return fmt.Errorf("cpu %s: functional unit counts must be positive", c.Name)
	case c.SPEAR && (c.ExtractWidth <= 0 || c.ScanWidth <= 0):
		return fmt.Errorf("cpu %s: SPEAR extraction widths must be positive", c.Name)
	case c.SPEAR && (c.TriggerFraction <= 0 || c.TriggerFraction > 1):
		return fmt.Errorf("cpu %s: trigger fraction %v out of (0,1]", c.Name, c.TriggerFraction)
	case c.StridePrefetch && c.StrideDegree <= 0:
		return fmt.Errorf("cpu %s: stride degree must be positive", c.Name)
	case c.SoftwareTrigger && c.SpawnOverhead <= 0:
		return fmt.Errorf("cpu %s: software spawn overhead must be positive", c.Name)
	case c.MaxCycles == 0:
		return fmt.Errorf("cpu %s: MaxCycles must be positive", c.Name)
	case c.PSessionBudget < 0 || c.PFaultThreshold < 0:
		return fmt.Errorf("cpu %s: p-thread fault knobs must be non-negative", c.Name)
	case c.PFaultThreshold > 0 && c.PFaultBackoff == 0:
		return fmt.Errorf("cpu %s: PFaultBackoff must be positive when PFaultThreshold is set", c.Name)
	}
	return nil
}

// Result collects the statistics of one simulation.
type Result struct {
	Config string
	Cycles uint64

	// AvgIFQOccupancy is the mean number of valid IFQ entries per cycle —
	// the quantity the trigger condition tests against.
	AvgIFQOccupancy float64

	MainCommitted uint64 // main-thread instructions retired
	PCommitted    uint64 // p-thread instructions retired
	IPC           float64

	CondBranches uint64 // committed conditional branches (main thread)
	BranchHits   uint64 // correctly predicted conditional branches
	Mispredicts  uint64
	BranchRatio  float64 // BranchHits / CondBranches
	IPB          float64 // instructions per (conditional) branch

	L1D mem.CacheStats
	L2  mem.CacheStats

	// SPEAR activity.
	Triggers       uint64 // trigger sessions armed
	SessionsDone   uint64 // sessions that ran to d-load extraction
	SessionsKilled uint64 // sessions destroyed by an IFQ flush
	Extracted      uint64 // p-thread instructions extracted
	LiveInCopies   uint64
	PrefetchLoads  uint64 // p-thread loads that accessed the hierarchy

	// StridePrefetches counts prefetches issued by the optional stride
	// prefetcher (charged to the helper slot of the cache statistics).
	StridePrefetches uint64

	// PFault counts contained p-thread faults and backoff events. Always
	// zero on non-SPEAR machines.
	PFault FaultStats

	// Prefetch classifies every L1D block filled by the helper context
	// (p-thread loads and stride prefetches) as timely, late, useless, or
	// harmful, overall and per fill-site PC. Timely+Late+Useless+Harmful
	// always equals Fills.
	Prefetch mem.PrefetchStats

	// Intervals is the interval-metrics time series, populated when
	// Config.MetricsInterval is non-zero. The last sample may cover a
	// partial interval.
	Intervals []IntervalSample `json:",omitempty"`

	// Timing is the host-time attribution of the run (wall clock, run
	// loop, per-stage buckets), populated only when Config.Perf was set.
	// Host timing is nondeterministic by nature, so perf-enabled reports
	// are not byte-reproducible across runs.
	Timing *Timing `json:"timing,omitempty"`

	// FinalStateHash fingerprints the main thread's final architectural
	// state (registers, PC, retired count, and memory). Because p-thread
	// activity is fully contained, this hash is identical across the
	// baseline machine, every SPEAR configuration, and the functional
	// emulator for the same program.
	FinalStateHash uint64
}

func (r *Result) finalize() {
	if r.Cycles > 0 {
		r.IPC = float64(r.MainCommitted) / float64(r.Cycles)
	}
	if r.CondBranches > 0 {
		r.BranchRatio = float64(r.BranchHits) / float64(r.CondBranches)
		r.IPB = float64(r.MainCommitted) / float64(r.CondBranches)
	} else {
		r.BranchRatio = 1
	}
}

// MainL1Misses returns the main thread's demand D-L1 misses (Figure 8's
// metric).
func (r *Result) MainL1Misses() uint64 { return r.L1D.Misses[mem.TidMain] }

// HelperL1Misses returns the helper context's D-L1 misses (p-thread and
// stride-prefetch traffic).
func (r *Result) HelperL1Misses() uint64 { return r.L1D.Misses[mem.TidHelper] }
