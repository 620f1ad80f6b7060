package cpu

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// longLoop is a program whose simulation runs for millions of cycles —
// long enough that only in-loop cancellation can stop it early.
const longLoop = `
main:   li r1, 0
        li r2, 2000000
loop:   addi r1, r1, 1
        blt r1, r2, loop
        halt
`

func TestRunContextPreCancelled(t *testing.T) {
	p := assemble(t, longLoop)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, p, fastConfig())
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to also match context.Canceled", err)
	}
	// The first poll happens at cycle 0: a cancelled context never
	// simulates a single cycle.
	if !strings.Contains(err.Error(), "at cycle 0 ") {
		t.Errorf("err = %v, want abort at cycle 0", err)
	}
}

// dramChase chases a ring of 64-byte nodes four times the size of the L2
// for 400M loads, so every load misses to DRAM and most cycles are dead:
// the run loop jumps over them.
const dramChase = `
        .data
buf:    .space 1048576
        .text
main:   la   r1, buf
        li   r2, 16383
init:   addi r3, r1, 64
        sd   r3, 0(r1)
        mv   r1, r3
        addi r2, r2, -1
        bnez r2, init
        la   r3, buf
        sd   r3, 0(r1)
        li   r4, 0
        li   r5, 400000000
chase:  ld   r3, 0(r3)
        addi r4, r4, 1
        blt  r4, r5, chase
        halt
`

// cancelAfterFirstPoll is a context whose first Err poll (the sim's
// cycle-0 check) reports it live and then cancels it, so the
// cancellation lands while the simulation is mid-flight.
type cancelAfterFirstPoll struct {
	context.Context
	cancel context.CancelFunc
	polled bool
}

func (c *cancelAfterFirstPoll) Err() error {
	err := c.Context.Err()
	if !c.polled {
		c.polled = true
		c.cancel()
	}
	return err
}

// TestRunContextCancelPreemptsRunningSim cancels the context after the
// simulation has started (right after its cycle-0 poll) and asserts the
// context check preempts the run at the next 64K-cycle poll instead of
// letting the loop run to completion. On the DRAM-bound chase this pins
// that a jump over dead cycles stops at the poll boundary.
func TestRunContextCancelPreemptsRunningSim(t *testing.T) {
	for _, src := range []string{longLoop, dramChase} {
		p := assemble(t, src)
		inner, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx := &cancelAfterFirstPoll{Context: inner, cancel: cancel}
		_, err := RunContext(ctx, p, fastConfig())
		if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrInterrupted wrapping context.Canceled", err)
		}
		// Cancellation after cycle 0 must be seen by the 64K-cycle poll,
		// so the run dies at cycle 65536 — far before the loop's natural
		// end.
		if !strings.Contains(err.Error(), "at cycle 65536 ") {
			t.Errorf("err = %v, want abort at the first 64K-cycle poll after cancellation", err)
		}
	}
}

// TestRunContextDeadlinePreemptsAtPoll stops a long simulation from
// outside the cycle loop — by a short wall-clock deadline, and by a
// cancel from another goroutine — and asserts the typed contract a
// deadline-bearing caller (speard via internal/sched, the harness
// watchdog) depends on: the error matches ErrInterrupted and the
// context's own error, and the run stops at a 64K-cycle poll boundary
// rather than some arbitrary cycle — the cooperative-cancellation
// guarantee that bounds how far a run can overshoot its deadline. It
// does so on a loop with no dead cycles and on a DRAM-bound pointer
// chase, whose dead cycles the loop jumps over: a jump must land on the
// poll boundary, not past it.
func TestRunContextDeadlinePreemptsAtPoll(t *testing.T) {
	// Both programs run two orders of magnitude longer than longLoop:
	// the context must be what stops them, not the loop bound.
	progs := []struct{ prefix, src string }{
		{"", `
main:   li r1, 0
        li r2, 400000000
loop:   addi r1, r1, 1
        blt r1, r2, loop
        halt
`},
		{"dram-chase/", dramChase},
	}
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}, context.DeadlineExceeded},
		{"cancel-from-goroutine", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return ctx, cancel
		}, context.Canceled},
	}
	for _, pg := range progs {
		p := assemble(t, pg.src)
		for _, tc := range cases {
			t.Run(pg.prefix+tc.name, func(t *testing.T) {
				ctx, cancel := tc.ctx()
				defer cancel()
				start := time.Now()
				_, err := RunContext(ctx, p, fastConfig())
				elapsed := time.Since(start)
				if !errors.Is(err, ErrInterrupted) {
					t.Fatalf("err = %v, want ErrInterrupted", err)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want to also match %v", err, tc.want)
				}
				// The sim must stop at the next 64K-cycle poll after the
				// context ends, so the reported cycle is a multiple of
				// 65536 (and not the cycle-0 poll: the context was live
				// when the run began).
				var cycle uint64
				if _, serr := fmt.Sscanf(err.Error()[strings.Index(err.Error(), "at cycle "):], "at cycle %d", &cycle); serr != nil {
					t.Fatalf("err %q carries no parseable cycle count: %v", err, serr)
				}
				if cycle == 0 || cycle%65536 != 0 {
					t.Errorf("aborted at cycle %d, want a nonzero multiple of 65536 (the poll interval)", cycle)
				}
				// Wall-clock sanity: preemption is prompt, not after the
				// 400M-iteration loop finishes. Generous bound for slow CI
				// machines.
				if elapsed > 10*time.Second {
					t.Errorf("preemption took %s, want well under 10s", elapsed)
				}
			})
		}
	}
}

func TestRunContextBackgroundCompletes(t *testing.T) {
	p := assemble(t, `
main:   li r1, 1
        li r2, 2
        add r3, r1, r2
        halt
`)
	res, err := RunContext(context.Background(), p, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.MainCommitted != 4 {
		t.Errorf("committed %d, want 4", res.MainCommitted)
	}
}
