// Command spearcc is the SPEAR compiler driver: it assembles a SPISA source
// file (or builds a named workload), runs the four compiler modules of the
// paper's Figure 4 — CFG construction, profiling, hybrid slicing, and
// attach — and writes the resulting SPEAR binary.
//
// Usage:
//
//	spearcc -workload mcf -o mcf.spear [-report]
//	spearcc -in kernel.s -o kernel.spear [-report]
//
// With -workload, profiling runs on the kernel's training input and the
// emitted binary carries the reference input, matching the paper's
// train/ref methodology. With -in, the single provided program is both
// profiled and emitted.
package main

import (
	"flag"
	"fmt"
	"os"

	"spear/internal/asm"
	"spear/internal/exitcode"
	"spear/internal/harness"
	"spear/internal/prog"
	"spear/internal/spearcc"
	"spear/internal/workloads"
)

func main() {
	in := flag.String("in", "", "SPISA assembly source to compile")
	workload := flag.String("workload", "", "named workload to build and compile")
	out := flag.String("o", "", "output SPEAR binary path")
	report := flag.Bool("report", false, "print the compilation report (d-loads, slices, live-ins)")
	// The defaults are the scaled profiling knobs sweeps simulate with.
	def := harness.DefaultOptions().Compiler.Profile
	maxInstr := flag.Uint64("profile-instr", def.MaxInstr, "profiling instruction budget")
	threshold := flag.Uint64("miss-threshold", def.MissThreshold, "delinquent-load miss threshold")
	flag.Parse()

	if err := run(*in, *workload, *out, *report, *maxInstr, *threshold); err != nil {
		fmt.Fprintln(os.Stderr, "spearcc:", err)
		os.Exit(exitcode.Err)
	}
}

func run(in, workload, out string, report bool, maxInstr, threshold uint64) error {
	if (in == "") == (workload == "") {
		return fmt.Errorf("exactly one of -in or -workload is required")
	}

	var train, ref *prog.Program
	switch {
	case workload != "":
		k, ok := workloads.ByName(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		var err error
		if train, err = k.Build(workloads.Train); err != nil {
			return err
		}
		if ref, err = k.Build(workloads.Ref); err != nil {
			return err
		}
	default:
		src, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		if train, err = asm.Assemble(in, string(src)); err != nil {
			return err
		}
		ref = train
	}

	opts := spearcc.DefaultOptions()
	opts.Profile.MaxInstr = maxInstr
	opts.Profile.MissThreshold = threshold
	compiled, rep, err := spearcc.Compile(train, opts)
	if err != nil {
		return err
	}
	// Ship the reference input in the emitted binary.
	compiled.Data = ref.Data
	compiled.Name = ref.Name
	if err := compiled.Validate(); err != nil {
		return err
	}

	if report {
		fmt.Print(rep.Describe(compiled))
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := prog.WriteTo(f, compiled); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d instructions, %d p-thread(s)\n", out, len(compiled.Text), len(compiled.PThreads))
	}
	return nil
}
