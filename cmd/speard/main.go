// Command speard serves SPEAR sweeps over HTTP: a crash-tolerant sweep
// service with admission control, per-request deadlines, and graceful
// drain. It drives the same engine/scheduler path as spearbench
// (internal/sched), so a sweep POSTed here produces a report
// byte-identical to the CLI's.
//
// Usage:
//
//	speard [-addr :8791] [-data speard-data] [-workers N] [-queue N]
//	       [-per-client N] [-deadline D] [-max-deadline D]
//	       [-drain-timeout D] [-parallel N] [-v]
//
// Submit a sweep and fetch its report:
//
//	curl -d '{"kernels":["mcf"],"seed":1}' localhost:8791/v1/sweeps
//	curl localhost:8791/v1/jobs/<id>/report
//
// Jobs are keyed by the request's SHA-256 content hash: identical
// requests from any number of clients coalesce onto one job, and each
// job's runs are write-ahead-journaled under -data/<key>.journal. After
// a crash (even SIGKILL), restarting speard over the same -data and
// resubmitting the identical request resumes from the fsync'd journal
// and converges to the byte-identical report.
//
// Admission control: the queue is bounded (-queue); past the bound a
// submission is answered 429 with a Retry-After header, never silently
// dropped. -per-client bounds one client's live jobs the same way.
// -deadline bounds jobs that request none and -max-deadline clamps what
// requests may ask for; an expired deadline preempts the cycle simulator
// at its next cancellation poll and journals the runs as interrupted (so
// a resubmission resumes, not repeats).
//
// Shutdown: the first SIGINT/SIGTERM starts the two-phase drain — stop
// admitting (readyz flips to 503, new submissions get 503+Retry-After),
// shed queued jobs with a typed reason, let running jobs finish within
// -drain-timeout, then preempt whatever remains (journaled, resumable).
// A second signal forces an immediate exit.
//
// Exit codes (see internal/exitcode):
//
//	0  clean drain — no work was preempted
//	3  partial — the drain timed out and in-flight jobs were preempted;
//	   their journals survive, resubmit after restart to resume
//	1  hard failure (bad flags, bind error, forced second-signal exit)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"spear/internal/exitcode"
	"spear/internal/harness"
	"spear/internal/perf"
	"spear/internal/sched"
	"spear/internal/speard"
	"spear/internal/store"
)

func main() {
	addr := flag.String("addr", ":8791", "listen address")
	data := flag.String("data", "speard-data", "data directory for per-job write-ahead journals")
	workers := flag.Int("workers", 2, "jobs executing concurrently")
	queue := flag.Int("queue", 16, "admission queue bound; submissions past it get 429 + Retry-After")
	perClient := flag.Int("per-client", 0, "max live (queued+running) jobs per client (0 = unlimited)")
	deadline := flag.Duration("deadline", 0, "default per-job deadline for requests that set none (0 = unbounded)")
	maxDeadline := flag.Duration("max-deadline", 0, "clamp on requested per-job deadlines (0 = no clamp)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for running jobs on SIGTERM before they are preempted")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "per-job simulation pool width (total concurrency = workers x parallel)")
	verbose := flag.Bool("v", false, "log job transitions, journal recovery and report-store quarantines to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage: speard [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), `
Exit codes:
  0  clean drain — no work was preempted
  3  partial — drain timed out; preempted jobs are journaled, resubmit to resume
  1  hard failure

The first SIGINT/SIGTERM drains gracefully; a second forces an immediate exit.
`)
	}
	flag.Parse()

	os.Exit(run(*addr, *data, sched.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		PerClient:       *perClient,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DataDir:         *data,
	}, *drainTimeout, *parallel, *verbose))
}

func run(addr, data string, cfg sched.Config, drainTimeout time.Duration, parallel int, verbose bool) int {
	if err := os.MkdirAll(data, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "speard:", err)
		return exitcode.Err
	}

	// The perf registry covers the scheduler and the server, NOT the
	// engine: harness.Options.Perf would stamp host timing onto report
	// rows and break byte-identical convergence across restarts.
	reg := perf.NewRegistry()
	cfg.Perf = reg
	if verbose {
		cfg.Log = os.Stderr
	}

	// The completed-report index scans -data at startup: every sweep a
	// previous incarnation finished is served straight from disk, never
	// re-executed. Scan problems (quarantined damage) are logged and the
	// affected entry is simply not indexed — startup never fails on a
	// damaged journal.
	ix, err := store.Open(store.Config{Dir: data, Perf: reg, Log: cfg.Log})
	if err != nil {
		fmt.Fprintln(os.Stderr, "speard: report store:", err)
		return exitcode.Err
	}
	cfg.Store = ix
	if n := ix.Len(); n > 0 {
		fmt.Fprintf(os.Stderr, "speard: report store indexed %d completed sweep(s)\n", n)
	}

	opts := harness.DefaultOptions()
	opts.Parallel = parallel
	engine := sched.NewSuiteEngine(opts)
	scheduler := sched.New(engine, cfg)
	defer scheduler.Close()

	srv := speard.New(scheduler, reg)
	httpSrv := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "speard:", err)
		return exitcode.Err
	}
	fmt.Fprintf(os.Stderr, "speard: listening on %s (data=%s workers=%d queue=%d)\n",
		ln.Addr(), data, cfg.Workers, cfg.QueueDepth)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "speard:", err)
		return exitcode.Err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "speard: %s — draining (grace %s; signal again to force exit)\n", sig, drainTimeout)
	}

	// Second signal anywhere in the drain forces out immediately.
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "speard: forced exit")
		os.Exit(exitcode.Err)
	}()

	// Phase 1+2: stop admitting (readyz goes 503 via the scheduler's
	// draining flag), shed the queue, wait for running jobs up to the
	// grace period, then preempt.
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := scheduler.Drain(drainCtx)

	// Stop serving only after the drain so probes and progress reads
	// work throughout.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	_ = httpSrv.Shutdown(shutCtx)

	switch {
	case drainErr == nil:
		fmt.Fprintln(os.Stderr, "speard: drained clean")
		return exitcode.OK
	case errors.Is(drainErr, sched.ErrDrainTimeout):
		fmt.Fprintln(os.Stderr, "speard:", drainErr)
		return exitcode.Partial
	default:
		fmt.Fprintln(os.Stderr, "speard:", drainErr)
		return exitcode.Err
	}
}
