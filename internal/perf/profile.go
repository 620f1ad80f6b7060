package perf

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiled runs f under the optional pprof CPU and heap profiles (an
// empty path skips that profile). A failure to write the heap profile is
// reported on stderr under the command name cmd and does not change the
// returned error.
func Profiled(cmd, cpuProfile, memProfile string, f func() error) error {
	if cpuProfile != "" {
		pf, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			pf, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
				return
			}
			defer pf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(pf); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
			}
		}()
	}
	return f()
}
