package cpu

import (
	"math/bits"

	"spear/internal/perf"
)

// Host-time stage attribution: when Config.Perf is set, stepCycle's
// lap calls read the perf monotonic clock between pipeline stages on
// every stageSampleStride-th cycle and accumulate the sampled nanos per
// stage. At the end of each run-loop window (windowMask+1 cycles) and of
// the loop itself, the window's measured wall time is split over the
// stages in proportion to their sampled nanos, published to the
// registry's cpu.stage.<name>.ns counters; the whole-run totals land in
// Result.Timing. With Config.Perf nil every lap is one
// predictable branch.

// Stage bucket indices. "book" is the begin/end-of-cycle bookkeeping
// (structural-resource reset, occupancy accounting, ready-list fold,
// interval sampling) so the buckets together cover the entire stepCycle
// body, not just the seven stage calls.
const (
	stgBook = iota
	stgCommit
	stgComplete
	stgIssue
	stgExtract
	stgDispatch
	stgTrigger
	stgFetch
	numStages
)

var stageNames = [numStages]string{
	stgBook:     "book",
	stgCommit:   "commit",
	stgComplete: "complete",
	stgIssue:    "issue",
	stgExtract:  "extract",
	stgDispatch: "dispatch",
	stgTrigger:  "trigger",
	stgFetch:    "fetch",
}

// stageSampleStride is the sampling period in cycles. It is prime so
// that it does not alias with kernel loops whose period in cycles is a
// power of two: a 64-cycle stride kept landing on the same phase of
// art's inner loop and under-counted its extract stage.
const stageSampleStride = 61

// stageTiming is the sim's timing state; zero value = timing off.
type stageTiming struct {
	on       bool
	sampled  bool              // this cycle's laps read the clock
	mark     int64             // clock at the previous lap of a sampled cycle
	winStart int64             // clock at the start of the current window
	acc      [numStages]uint64 // sampled nanos in this window
	tot      [numStages]uint64 // whole-run nanos
	ctr      [numStages]*perf.Counter
}

func (st *stageTiming) init(reg *perf.Registry) {
	st.on = true
	for i := range stageNames {
		st.ctr[i] = reg.Counter("cpu.stage." + stageNames[i] + ".ns")
	}
}

// sampleCycle decides whether cycle is sampled (never with timing off)
// and, if it is, starts its first lap.
func (st *stageTiming) sampleCycle(cycle uint64) {
	st.sampled = st.on && cycle%stageSampleStride == 0
	if st.sampled {
		st.mark = perf.Now()
	}
}

// lap charges the host time since the previous lap to stage. It reads
// the clock only on sampled cycles.
func (s *sim) lap(stage int) {
	if s.tmr.sampled {
		s.tmr.lapSampled(stage)
	}
}

// lapSampled is lap's clock read, kept out of lap so that lap inlines.
func (st *stageTiming) lapSampled(stage int) {
	now := perf.Now()
	st.acc[stage] += uint64(now - st.mark)
	st.mark = now
}

// Timing is the host-time attribution of one run, populated on Result
// when the run was configured with a perf registry. Stage nanos cover
// the run loop body; WallNanos additionally includes machine
// construction and result assembly.
type Timing struct {
	WallNanos uint64       `json:"wall_ns"`
	LoopNanos uint64       `json:"loop_ns"`
	Stages    []StageNanos `json:"stages"`
}

// StageNanos is one stage bucket's whole-run host time.
type StageNanos struct {
	Name  string `json:"name"`
	Nanos uint64 `json:"ns"`
}

// StageSum returns the total host nanos attributed to stage buckets.
func (t *Timing) StageSum() uint64 {
	if t == nil {
		return 0
	}
	var sum uint64
	for _, s := range t.Stages {
		sum += s.Nanos
	}
	return sum
}

// splitWindow charges a window's measured nanos to the stages in
// proportion to their sampled nanos. Each stage gets the difference of
// the floored cumulative shares, so the result sums to window exactly
// and each stage is within 1 ns of its proportional share. A window
// with no sampled cycle is charged to book.
func splitWindow(window uint64, sampled *[numStages]uint64) [numStages]uint64 {
	var total uint64
	for _, ns := range sampled {
		total += ns
	}
	var out [numStages]uint64
	if total == 0 {
		out[stgBook] = window
		return out
	}
	var cum, prev uint64
	for i, ns := range sampled {
		cum += ns
		// floor(window*cum/total) cannot overflow: cum <= total.
		hi, lo := bits.Mul64(window, cum)
		q, _ := bits.Div64(hi, lo, total)
		out[i] = q - prev
		prev = q
	}
	return out
}

// flushStageNanos ends the current window at now: its wall time is
// split over the stages and added to the whole-run totals and the
// registry counters.
func (s *sim) flushStageNanos(now int64) {
	st := &s.tmr
	split := splitWindow(uint64(now-st.winStart), &st.acc)
	st.acc = [numStages]uint64{}
	st.winStart = now
	for i, ns := range split {
		st.tot[i] += ns
		st.ctr[i].Add(ns)
	}
}

// timingResult assembles Result.Timing from the whole-run totals. Called
// from finish after the final flush.
func (s *sim) timingResult() *Timing {
	t := &Timing{Stages: make([]StageNanos, 0, numStages)}
	for i, ns := range s.tmr.tot {
		t.Stages = append(t.Stages, StageNanos{Name: stageNames[i], Nanos: ns})
	}
	return t
}
