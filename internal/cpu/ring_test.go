package cpu

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"spear/internal/prog"
)

// oddRingConfig is a SPEAR machine whose IFQ, RUU, p-thread RUU and LSQ
// sizes are not powers of two, so ring storage rounded up to a power of
// two must still fill, stall and trigger at the configured sizes.
func oddRingConfig() Config {
	c := SPEARConfig(96, false)
	c.RUUSize = 100
	c.PRUUSize = 48
	c.LSQSize = 40
	c.MaxCycles = 50_000_000
	return c
}

// TestNonPowerOfTwoRings pins the counters of four programs under
// oddRingConfig. The expected values were captured with the modulo-indexed
// rings (backing arrays of exactly the configured sizes), before ring
// storage was rounded up to a power of two and indexed by mask; any
// difference means the rounded storage leaked into occupancy, stalls or
// trigger decisions.
func TestNonPowerOfTwoRings(t *testing.T) {
	type want struct {
		cycles, mainCommitted, pCommitted, triggers uint64
		finalStateHash                              uint64
	}
	cases := []struct {
		name string
		prog func(t *testing.T) *prog.Program
		want want
	}{
		{"nested loops with memory", func(t *testing.T) *prog.Program {
			return assemble(t, corePrograms["nested loops with memory"])
		}, want{2579, 10342, 0, 0, 0x854f6e4ed8cec9c0}},
		{"data-dependent branches", func(t *testing.T) *prog.Program {
			p := assemble(t, corePrograms["data-dependent branches"])
			r := rand.New(rand.NewSource(9))
			for i := 0; i < 1000; i++ {
				binary.LittleEndian.PutUint64(p.Data[0].Bytes[8*i:], uint64(r.Int63()))
			}
			return p
		}, want{24001, 9502, 0, 0, 0xb365a9f5ba6c2f8d}},
		// Four memory operations in seven instructions behind missing
		// loads: the 40-entry LSQ, not the RUU, stalls dispatch.
		{"memory-dense copy", func(t *testing.T) *prog.Program {
			return assemble(t, `
        .data
buf:    .space 262144
        .text
main:   la   r1, buf
        li   r2, 0
        li   r9, 8192
loop:   ld   r3, 0(r1)
        sd   r3, 8(r1)
        ld   r4, 16(r1)
        sd   r4, 24(r1)
        addi r1, r1, 32
        addi r2, r2, 1
        blt  r2, r9, loop
        halt
`)
		}, want{112343, 57348, 0, 0, 0x1ab47a8b62722c84}},
		{"gather with p-threads", func(t *testing.T) *prog.Program {
			return compileSPEAR(t, 123, 456)
		}, want{145448, 81925, 57108, 2, 0x57adca2eef49c8b7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.prog(t), oddRingConfig())
			if err != nil {
				t.Fatal(err)
			}
			got := want{res.Cycles, res.MainCommitted, res.PCommitted, res.Triggers, res.FinalStateHash}
			if got != c.want {
				t.Errorf("got  %+v\nwant %+v", got, c.want)
			}
		})
	}

	// The deadlock dump reports occupancy against the configured sizes,
	// not the rounded-up storage.
	t.Run("deadlock dump", func(t *testing.T) {
		cfg := oddRingConfig()
		cfg.MaxCycles = 2000
		_, err := Run(compileSPEAR(t, 123, 456), cfg)
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("err = %v, want *DeadlockError", err)
		}
		for _, w := range []string{"/96\n", "RUU[main]:", "/100  LSQ occupancy=", "RUU[p]:", "/48  LSQ occupancy=", "/40\n"} {
			if !strings.Contains(dl.Dump, w) {
				t.Errorf("dump missing %q:\n%s", w, dl.Dump)
			}
		}
	})
}
