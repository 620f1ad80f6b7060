// Package exitcode is the single documented table of process exit codes
// shared by every SPEAR binary. The codes grew up per-binary (spearbench
// 0/3/5/1, spearsim 2/3/4, spearstat 4, speard 0/3/1); this package
// replaces the duplicated magic numbers with one set of named constants
// so the meanings cannot drift apart and scripts have one place to read.
//
// The table — a code always means the same *kind* of outcome, even where
// two binaries surface it through different checks:
//
//	code  binaries                 meaning
//	----  -----------------------  ------------------------------------------
//	  0   all                      success
//	  1   all                      hard failure: bad flags, unknown kernel,
//	                               I/O errors, forced second-signal exit
//	  2   spearsim, spearfuzz      validation failure: the cycle simulator
//	                               diverged from the functional emulator
//	                               (spearfuzz also writes reproducer bundles)
//	  3   spearbench, speard       partial: work was interrupted (signal,
//	                               deadline, drain timeout) but journaled —
//	                               resume/resubmit converges byte-identically
//	      spearsim                 deadlock: the pipeline stopped retiring
//	  4   spearsim                 interrupted by SIGINT/SIGTERM
//	      spearstat -bench         benchmark regression past threshold
//	  5   spearbench -fsck         journal damage found by the integrity walk
//	  6   spearproxy               no usable backends: none configured, or
//	                               every configured shard unreachable at start
//
// Codes 3/4 carry two names each where two binaries share the number;
// the aliases keep call sites self-describing without renumbering a
// documented, scripted-against interface.
package exitcode

const (
	// OK is universal success.
	OK = 0
	// Err is the universal hard failure: bad flags, unknown kernels or
	// configs, unrecoverable I/O errors, and the forced exit taken when a
	// second interrupt signal arrives mid-shutdown.
	Err = 1

	// Validation is the differential divergence failure: the cycle
	// simulator retired something the functional emulator did not
	// (spearsim on one program, spearfuzz across generated ones).
	Validation = 2

	// Partial marks gracefully interrupted work whose state is safely
	// journaled: a spearbench sweep cancelled by a signal, or a speard
	// drain that timed out and preempted in-flight jobs. Resuming
	// (spearbench -resume) or resubmitting (speard) converges to the
	// byte-identical uninterrupted result.
	Partial = 3
	// Deadlock is spearsim aborting a run that stopped retiring
	// instructions (the diagnostic dump goes to stderr).
	Deadlock = 3

	// Interrupted is spearsim preempted by SIGINT/SIGTERM.
	Interrupted = 4
	// BenchRegression is spearstat -bench finding a metric past its
	// regression threshold.
	BenchRegression = 4

	// FsckDamaged is spearbench -fsck finding torn or corrupt journal
	// records.
	FsckDamaged = 5

	// NoBackends is spearproxy refusing to start (or continue) with an
	// empty backend set: none were configured, or the flag parsed to
	// nothing usable. Distinct from Err so a supervisor can tell a
	// misconfigured cluster from a crashed proxy.
	NoBackends = 6
)
