// Command spearproxy fronts a speard cluster: a consistent-hash router
// that shards sweep submissions over N speard backends and keeps the
// cluster serving through shard crashes.
//
// Usage:
//
//	spearproxy -backends http://h1:8791,http://h2:8791,http://h3:8791
//	           [-addr :8790] [-health-interval 1s] [-timeout 15s] [-v]
//
// Requests are routed by the same SHA-256 content hash speard dedups
// on, so one request always lands on the same shard; after a shard
// crash the ring successor recomputes the sweep, and per-shard dedup +
// write-ahead journals + the completed-report store make that converge
// to the byte-identical report. Reads by job ID try the owner first and
// fall through ring successors, so results stay reachable wherever a
// failover placed them. /v1/progress merges every shard's view and
// carries a per-shard health banner; spearstat -addr pointed at the
// proxy renders the whole cluster.
//
// Each shard gets one attempt per request, bounded by -timeout. A shard
// whose /readyz probe or proxied exchange fails is marked down, the
// request fails over to the ring successor, and the shard is skipped
// without a connection attempt until its next good probe, one
// -health-interval later at most.
//
// No backend available is never silent: the submission is answered 503
// with an aggregated Retry-After and a per-backend reason list.
//
// Exit codes (see internal/exitcode):
//
//	0  clean shutdown on SIGINT/SIGTERM
//	6  no usable backends configured
//	1  hard failure (bad flags, bind error)
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
	"strings"
	"syscall"
	"time"

	"spear/internal/exitcode"
	"spear/internal/perf"
	"spear/internal/router"
)

func main() {
	addr := flag.String("addr", ":8790", "listen address")
	backends := flag.String("backends", "", "comma-separated speard base URLs (required)")
	healthInterval := flag.Duration("health-interval", time.Second, "interval between /readyz health probes")
	timeout := flag.Duration("timeout", 15*time.Second, "per-attempt proxy timeout (SSE streams exempt)")
	verbose := flag.Bool("v", false, "log failovers and health changes to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage: spearproxy -backends url,url,... [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), `
Exit codes:
  0  clean shutdown
  6  no usable backends configured
  1  hard failure
`)
	}
	flag.Parse()
	os.Exit(run(*addr, *backends, router.Config{
		HealthInterval: *healthInterval,
		AttemptTimeout: *timeout,
	}, *verbose))
}

func run(addr, backends string, cfg router.Config, verbose bool) int {
	for _, b := range strings.Split(backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			cfg.Backends = append(cfg.Backends, b)
		}
	}
	cfg.Perf = perf.NewRegistry()
	if verbose {
		cfg.Log = os.Stderr
	}
	rt, err := router.New(cfg)
	if errors.Is(err, router.ErrNoBackends) {
		fmt.Fprintln(os.Stderr, "spearproxy: no usable backends (use -backends url,url,...)")
		return exitcode.NoBackends
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spearproxy:", err)
		return exitcode.Err
	}
	defer rt.Close()

	httpSrv := &http.Server{Handler: rt}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spearproxy:", err)
		return exitcode.Err
	}
	fmt.Fprintf(os.Stderr, "spearproxy: listening on %s, routing %d backend(s)\n", ln.Addr(), len(cfg.Backends))

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "spearproxy:", err)
		return exitcode.Err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "spearproxy: %s — shutting down\n", sig)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutCtx)
	return exitcode.OK
}
