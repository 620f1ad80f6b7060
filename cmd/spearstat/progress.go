package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"spear/internal/journal"
	"spear/internal/sched"
)

// Journal progress mode: `spearstat -journal <dir>` inspects a sweep's
// write-ahead journal and prints one progress line — how many runs are
// done, failed, or skipped, and which are currently in flight. With
// -follow the line refreshes in place (every -interval) until
// interrupted, giving a live view of a parallel sweep running in
// another process: the in-flight count is the number of `started`
// records without a terminal record, i.e. the worker pool's current
// occupancy.
//
// `spearstat -addr http://host:port` renders the same line from a
// running speard instead, via its /v1/progress endpoint. Both paths
// fold down to journal.Progress, so the numbers agree no matter where
// they were computed.

// followLoop renders line() once (follow == 0) or refreshes it in place
// every follow interval until SIGINT.
func followLoop(line func() (string, error), follow time.Duration, out io.Writer) error {
	s, err := line()
	if err != nil {
		return err
	}
	if follow <= 0 {
		fmt.Fprintln(out, s)
		return nil
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)
	tick := time.NewTicker(follow)
	defer tick.Stop()
	for {
		fmt.Fprintf(out, "\r\033[K%s", s)
		select {
		case <-sigc:
			fmt.Fprintln(out)
			return nil
		case <-tick.C:
		}
		if s, err = line(); err != nil {
			fmt.Fprintln(out)
			return err
		}
	}
}

// progress renders the journal in dir once (follow == 0) or refreshes
// the line every follow interval until SIGINT. A journal that does not
// exist yet is not an error: -follow is commonly started before the
// sweep it watches, so it shows a waiting line and polls until the
// journal file appears.
func progress(dir string, follow time.Duration, out io.Writer) error {
	return followLoop(func() (string, error) { return progressLine(dir) }, follow, out)
}

// progressAddr renders live progress from a running speard's
// /v1/progress endpoint, with the same once-or-follow behavior as the
// journal path.
func progressAddr(addr string, follow time.Duration, out io.Writer) error {
	return followLoop(func() (string, error) { return addrLine(addr) }, follow, out)
}

// progressLine loads the journal and renders its progress line, or a
// waiting line while the journal file does not exist yet.
func progressLine(dir string) (string, error) {
	path := filepath.Join(dir, journal.FileName)
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		return "waiting for journal " + path + " to be created", nil
	}
	st, err := journal.Load(dir)
	if err != nil {
		return "", err
	}
	return renderProgress(st), nil
}

// renderShardBanner folds the per-shard health list into the cluster
// banner segment: a ready count, then one annotation per shard that is
// not plainly ready ("addr: down (connection refused)").
func renderShardBanner(shards []sched.ShardHealth) string {
	ready := 0
	var trouble []string
	for _, s := range shards {
		if s.State == sched.ShardReady {
			ready++
			continue
		}
		note := s.Addr + ": " + string(s.State)
		if s.Error != "" {
			note += " (" + s.Error + ")"
		}
		trouble = append(trouble, note)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d/%d shards ready", ready, len(shards))
	if len(trouble) > 0 {
		fmt.Fprintf(&b, " [%s]", strings.Join(trouble, "; "))
	}
	return b.String()
}

// addrLine fetches and renders one progress line from a running speard.
func addrLine(addr string) (string, error) {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	resp, err := http.Get(base + "/v1/progress")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("%s/v1/progress: %s: %s", base, resp.Status, strings.TrimSpace(string(body)))
	}
	// A single speard and a spearproxy both answer with sched.Progress;
	// only the proxy fills in the per-shard health list.
	var sp sched.Progress
	if err := json.NewDecoder(resp.Body).Decode(&sp); err != nil {
		return "", fmt.Errorf("%s/v1/progress: %w", base, err)
	}
	var b strings.Builder
	if len(sp.Shards) > 0 {
		b.WriteString(renderShardBanner(sp.Shards))
		b.WriteString(" | ")
	}
	fmt.Fprintf(&b, "speard: %d queued, %d running, %d done, %d failed, %d interrupted",
		sp.JobsQueued, sp.JobsRunning, sp.JobsDone, sp.JobsFailed, sp.JobsInterrupted)
	if sp.JobsShed > 0 {
		fmt.Fprintf(&b, ", %d shed", sp.JobsShed)
	}
	b.WriteString(" | ")
	b.WriteString(renderProgressLine(sp.Runs, time.Now().UnixNano()))
	return b.String(), nil
}

// renderProgress folds replayed journal state into one human-readable
// progress line.
func renderProgress(st *journal.State) string {
	return renderProgressAt(st, time.Now().UnixNano())
}

// renderProgressAt is renderProgress with an injectable clock (Unix
// nanoseconds) so tests are deterministic.
func renderProgressAt(st *journal.State, now int64) string {
	return renderProgressLine(st.Progress(), now)
}

// renderProgressLine renders the serializable progress summary — the
// shared currency between the local journal path and speard's HTTP
// endpoints — as the one-line human view.
func renderProgressLine(p journal.Progress, now int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d done, %d failed, %d skipped | %d in flight", p.Done, p.Failed, p.Skipped, len(p.InFlight))
	if len(p.InFlight) > 0 {
		names := p.InFlight
		const show = 4
		extra := 0
		if len(names) > show {
			extra = len(names) - show
			names = names[:show]
		}
		fmt.Fprintf(&b, ": %s", strings.Join(names, ", "))
		if extra > 0 {
			fmt.Fprintf(&b, " (+%d more)", extra)
		}
	}
	b.WriteString(renderPace(p, now))
	if p.Torn {
		b.WriteString(" | torn tail (crash mid-append; that run re-executes on resume)")
	}
	if p.Quarantined > 0 {
		fmt.Fprintf(&b, " | %d corrupt records skipped (their runs re-execute on resume)", p.Quarantined)
	}
	return b.String()
}

// renderPace derives elapsed time, completion throughput, and an ETA
// from the journal's record timestamps. Journals written by older
// builds carry no timestamps, in which case the whole segment is
// omitted. The ETA covers the runs the journal knows about — the ones
// in flight — at the sweep's observed completion rate; runs the sweep
// has not started yet are invisible to the journal, so the estimate is
// a floor while the pool is still being fed.
func renderPace(p journal.Progress, now int64) string {
	if p.FirstStart == 0 {
		return ""
	}
	// While runs are in flight the sweep is live and elapsed tracks the
	// caller's clock; once everything is terminal, report the sweep's own
	// span rather than time since it finished.
	end := now
	if len(p.InFlight) == 0 || end < p.LastEvent {
		end = p.LastEvent
	}
	elapsed := time.Duration(end - p.FirstStart)
	if elapsed <= 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, " | elapsed %s", elapsed.Round(time.Second))
	if terminal := p.Terminal(); terminal > 0 {
		perMin := float64(terminal) / elapsed.Minutes()
		fmt.Fprintf(&b, " | %.1f runs/min", perMin)
		if n := len(p.InFlight); n > 0 {
			eta := time.Duration(float64(n) / float64(terminal) * float64(elapsed))
			fmt.Fprintf(&b, " | ETA ~%s", eta.Round(time.Second))
		}
	}
	return b.String()
}
