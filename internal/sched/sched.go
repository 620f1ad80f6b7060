package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"spear/internal/harness"
	"spear/internal/iofault"
	"spear/internal/journal"
	"spear/internal/perf"
	"spear/internal/store"
)

// JobState is a job's position in the admission lifecycle.
type JobState string

const (
	JobQueued      JobState = "queued"      // admitted, waiting for a worker
	JobRunning     JobState = "running"     // executing on a worker
	JobDone        JobState = "done"        // completed; report available
	JobFailed      JobState = "failed"      // engine error; resubmission re-runs it
	JobInterrupted JobState = "interrupted" // deadline/drain preempted it; journaled, resumable
	JobShed        JobState = "shed"        // evicted from the queue by drain before starting
)

// Terminal reports whether the state is final (a resubmission of the
// same request starts the job over rather than coalescing onto it).
func (s JobState) Terminal() bool {
	switch s {
	case JobDone, JobFailed, JobInterrupted, JobShed:
		return true
	}
	return false
}

// Job is one admitted request. Its ID is the request's content hash, so
// identical requests from any client are the same job.
type Job struct {
	ID  string
	Req Request

	mu       sync.Mutex
	state    JobState
	err      error           // terminal error (failed/interrupted/shed)
	report   *harness.Report // set when done (or interrupted with partial rows)
	raw      []byte          // the report's canonical serialized bytes
	cacheHit bool            // served from the completed-report store, not executed
	stats    JournalStats
	deduped  int       // submissions coalesced onto this job beyond the first
	created  time.Time // first admission
	started  time.Time // zero until a worker picks it up
	finished time.Time // zero until terminal
	done     chan struct{}
}

// Snapshot is a race-free copy of a job's externally visible state, the
// unit speard serializes to JSON.
type Snapshot struct {
	ID       string    `json:"id"`
	State    JobState  `json:"state"`
	Req      Request   `json:"request"`
	Error    string    `json:"error,omitempty"`
	Deduped  int       `json:"deduped,omitempty"`
	Replayed int       `json:"replayed,omitempty"`
	Torn     bool      `json:"torn,omitempty"`
	CacheHit bool      `json:"cache_hit,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// Snapshot returns a consistent copy of the job's state.
func (job *Job) Snapshot() Snapshot {
	job.mu.Lock()
	defer job.mu.Unlock()
	s := Snapshot{
		ID: job.ID, State: job.state, Req: job.Req,
		Deduped: job.deduped, Replayed: job.stats.Replayed, Torn: job.stats.Torn,
		CacheHit: job.cacheHit,
		Created:  job.created, Started: job.started, Finished: job.finished,
	}
	if job.err != nil {
		s.Error = job.err.Error()
	}
	return s
}

// Result returns the job's report and terminal error once it is
// terminal (nil, nil while live).
func (job *Job) Result() (*harness.Report, JournalStats, error) {
	job.mu.Lock()
	defer job.mu.Unlock()
	if !job.state.Terminal() {
		return nil, JournalStats{}, nil
	}
	return job.report, job.stats, job.err
}

// RawReport returns the report's canonical serialized bytes once the
// job is done — either the bytes persisted to the completed-report
// store, or the bytes it was served from on a cache hit. Serving these
// exact bytes (rather than re-encoding the parsed report) is what makes
// a cache hit provably byte-identical to the original response.
func (job *Job) RawReport() []byte {
	job.mu.Lock()
	defer job.mu.Unlock()
	return job.raw
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (job *Job) Wait(ctx context.Context) error {
	job.mu.Lock()
	ch := job.done
	job.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Config tunes a Scheduler. The zero value is usable: 2 workers, a
// 16-deep queue, no per-client cap, no default deadline, journals under
// DataDir only when set.
type Config struct {
	// Workers is the number of jobs executing concurrently (default 2).
	// Each job additionally fans its runs across the engine's own pool
	// (harness.Options.Parallel), so total simulator concurrency is
	// Workers × Parallel.
	Workers int
	// QueueDepth bounds the admission queue (default 16). A submission
	// past the bound is shed with a typed QueueFullError, never silently
	// dropped.
	QueueDepth int
	// PerClient caps one client's live (queued+running) jobs (0 = off).
	PerClient int
	// DefaultDeadline bounds jobs that request none (0 = unbounded).
	DefaultDeadline time.Duration
	// MaxDeadline clamps requested deadlines (0 = no clamp).
	MaxDeadline time.Duration
	// DataDir is where per-job journals live, one directory per request
	// key ("" = jobs run un-journaled; no crash recovery).
	DataDir string
	// FS is the filesystem journals live on (nil = the real one).
	FS iofault.FS
	// Store is the durable completed-report index (nil = none). Submit
	// consults it before admitting: a request whose report is already
	// stored comes back as a done job — report served straight from
	// disk, zero re-execution — and every completed job's report is
	// persisted into it, so doneness survives a process restart.
	Store *store.Index
	// Perf receives scheduler counters and journal I/O metrics. It is
	// deliberately NOT handed to the engine: per-run timing in reports
	// would break byte-identical convergence.
	Perf *perf.Registry
	// Log receives one line per job transition; a job's terminal line
	// names what its journal replayed, quarantined or trimmed.
	Log io.Writer
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 2
	}
	return c.Workers
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 16
	}
	return c.QueueDepth
}

// Scheduler owns admission, queuing, deadlines, execution, and drain for
// sweep jobs. All transports (speard's HTTP handlers, tests) talk to it;
// it talks to the engine.
type Scheduler struct {
	cfg Config
	eng Engine

	baseCtx    context.Context // cancelled by Kill/Close/drain-timeout
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signals workers: queue non-empty or shutdown
	queue    []*Job     // FIFO of admitted, not-yet-running jobs
	jobs     map[string]*Job
	clients  map[string]int // live jobs per client key
	running  int
	draining bool
	closed   bool
	ewmaDur  time.Duration // smoothed job duration for Retry-After estimates

	shed struct{ queue, client, drain int }
}

// New starts a scheduler executing jobs on eng per cfg.
func New(eng Engine, cfg Config) *Scheduler {
	s := &Scheduler{
		cfg:     cfg,
		eng:     eng,
		jobs:    map[string]*Job{},
		clients: map[string]int{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Scheduler) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// retryAfterLocked estimates when capacity frees up: the smoothed job
// duration (15s prior before any job finishes) scaled by the backlog a
// new submission would sit behind, clamped to [1s, 5m]. An estimate,
// not a promise — but a 429 with a plausible Retry-After beats a bare
// rejection.
func (s *Scheduler) retryAfterLocked() time.Duration {
	dur := s.ewmaDur
	if dur <= 0 {
		dur = 15 * time.Second
	}
	backlog := len(s.queue) + s.running
	est := dur * time.Duration(backlog+1) / time.Duration(s.cfg.workers())
	if est < time.Second {
		est = time.Second
	}
	if est > 5*time.Minute {
		est = 5 * time.Minute
	}
	return est
}

// Submit admits a request. Outcomes:
//
//   - new work → a queued Job (coalesce=false)
//   - identical live or completed work → the existing Job (coalesce=true)
//   - identical failed/interrupted/shed work → the job is re-enqueued
//     through admission (its journal, if any, resumes)
//   - queue full / client cap / draining / closed → typed error
func (s *Scheduler) Submit(req Request) (job *Job, coalesced bool, err error) {
	if v, ok := s.eng.(Validator); ok {
		if err := v.Validate(req); err != nil {
			return nil, false, err
		}
	}
	id := req.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if existing, ok := s.jobs[id]; ok {
		existing.mu.Lock()
		live := !existing.state.Terminal() || existing.state == JobDone
		if live {
			existing.deduped++
		}
		existing.mu.Unlock()
		if live {
			s.cfg.Perf.Counter("sched.dedup").Add(1)
			return existing, true, nil
		}
		// Failed, interrupted, or shed: resubmission re-runs (resuming
		// from the journal when one exists), through normal admission.
	}
	if job := s.storeHitLocked(id, req); job != nil {
		return job, true, nil
	}
	if s.draining {
		return nil, false, &DrainingError{RetryAfter: s.retryAfterLocked()}
	}
	if len(s.queue) >= s.cfg.queueDepth() {
		s.shed.queue++
		s.cfg.Perf.Counter("sched.shed.queue").Add(1)
		return nil, false, &QueueFullError{Depth: s.cfg.queueDepth(), RetryAfter: s.retryAfterLocked()}
	}
	client := req.ClientKey()
	if s.cfg.PerClient > 0 && s.clients[client] >= s.cfg.PerClient {
		s.shed.client++
		s.cfg.Perf.Counter("sched.shed.client").Add(1)
		return nil, false, &ClientLimitError{Client: client, Limit: s.cfg.PerClient, RetryAfter: s.retryAfterLocked()}
	}

	job = s.jobs[id]
	if job == nil {
		job = &Job{ID: id, Req: req, created: time.Now()}
		s.jobs[id] = job
	}
	job.mu.Lock()
	job.state = JobQueued
	job.Req = req // latest deadline/client win on re-enqueue
	job.err = nil
	job.report = nil
	job.started, job.finished = time.Time{}, time.Time{}
	job.done = make(chan struct{})
	job.mu.Unlock()

	s.clients[client]++
	s.queue = append(s.queue, job)
	s.cfg.Perf.Counter("sched.submit").Add(1)
	s.cfg.Perf.Gauge("sched.queue.depth").Set(float64(len(s.queue)))
	s.cond.Signal()
	s.logf("sched: job %s queued (client=%s queue=%d)", shortID(id), client, len(s.queue))
	return job, false, nil
}

// storeHitLocked consults the completed-report store for a request
// whose report is already durable — the restart path, where the jobs
// map is empty but the index knows the work is done. On a hit it
// materializes a done job (cacheHit=true) carrying the stored bytes,
// so the transport serves them without re-admitting anything. The
// consult runs even while draining: serving a finished report is a
// read, not new work. Returns nil on a miss (including a stored blob
// that fails report decoding — then the request re-runs; dedup by
// content hash makes the re-run converge to the same bytes).
func (s *Scheduler) storeHitLocked(id string, req Request) *Job {
	if s.cfg.Store == nil {
		return nil
	}
	raw, entry, err := s.cfg.Store.Get(id)
	if err != nil {
		return nil
	}
	rep, err := harness.ReadReport(bytes.NewReader(raw))
	if err != nil {
		s.logf("sched: job %s stored report undecodable (%v); re-running", shortID(id), err)
		return nil
	}
	job := &Job{ID: id, Req: req, created: time.Now()}
	job.state = JobDone
	job.report = rep
	job.raw = raw
	job.cacheHit = true
	job.started, job.finished = entry.Completed, entry.Completed
	job.done = make(chan struct{})
	close(job.done)
	s.jobs[id] = job
	s.cfg.Perf.Counter("sched.store.hits").Add(1)
	s.logf("sched: job %s done (report store hit)", shortID(id))
	return job
}

// Job returns the job with the given ID (request key), if any.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns snapshots of every known job, newest first.
func (s *Scheduler) Jobs() []Snapshot {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	snaps := make([]Snapshot, 0, len(jobs))
	for _, j := range jobs {
		snaps = append(snaps, j.Snapshot())
	}
	sort.Slice(snaps, func(i, k int) bool {
		if !snaps[i].Created.Equal(snaps[k].Created) {
			return snaps[i].Created.After(snaps[k].Created)
		}
		return snaps[i].ID < snaps[k].ID
	})
	return snaps
}

// worker pops queued jobs and executes them until shutdown.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		job := s.queue[0]
		s.queue = s.queue[1:]
		s.running++
		s.cfg.Perf.Gauge("sched.queue.depth").Set(float64(len(s.queue)))
		s.cfg.Perf.Gauge("sched.running").Set(float64(s.running))
		s.mu.Unlock()

		s.execute(job)

		s.mu.Lock()
		s.running--
		s.clients[job.Req.ClientKey()]--
		if s.clients[job.Req.ClientKey()] <= 0 {
			delete(s.clients, job.Req.ClientKey())
		}
		s.cfg.Perf.Gauge("sched.running").Set(float64(s.running))
		s.cond.Broadcast() // Drain waits on running==0
		s.mu.Unlock()
	}
}

// effectiveDeadline resolves the job's deadline: the request's, else the
// scheduler default, clamped by MaxDeadline. 0 = unbounded.
func (s *Scheduler) effectiveDeadline(req Request) time.Duration {
	d := req.Deadline()
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	return d
}

// JournalDir returns the journal directory a request's job uses under
// the scheduler's data dir ("" when the scheduler is journal-less).
func (s *Scheduler) JournalDir(req Request) string {
	if s.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.DataDir, req.Key()+".journal")
}

// execute runs one job end to end and stamps its terminal state.
func (s *Scheduler) execute(job *Job) {
	job.mu.Lock()
	job.state = JobRunning
	job.started = time.Now()
	job.mu.Unlock()
	s.logf("sched: job %s running", shortID(job.ID))

	ctx := s.baseCtx
	limit := s.effectiveDeadline(job.Req)
	var cancel context.CancelFunc
	if limit > 0 {
		ctx, cancel = context.WithTimeout(ctx, limit)
		defer cancel()
	}

	spec := JournalSpec{Perf: s.cfg.Perf}
	if dir := s.JournalDir(job.Req); dir != "" {
		fsys := s.cfg.FS
		if fsys == nil {
			fsys = iofault.OS()
		}
		// Resume iff a previous incarnation left a journal: that is the
		// crash-recovery path, and it must converge byte-identically.
		_, statErr := fsys.Stat(filepath.Join(dir, journal.FileName))
		spec.Dir, spec.Resume, spec.FS = dir, statErr == nil, fsys
	}

	rep, stats, err := Exec(ctx, s.eng, job.Req, spec)

	state := JobDone
	var terr error
	switch {
	case err != nil:
		state, terr = JobFailed, err
	case rep != nil && rep.Interrupted:
		state = JobInterrupted
		if ctx.Err() != nil && s.baseCtx.Err() == nil {
			// The job's own deadline expired (the scheduler is still
			// live): typed so callers can errors.Is(DeadlineExceeded).
			terr = &DeadlineError{ID: job.ID, Limit: limit}
		} else {
			terr = ErrInterrupted
		}
	}

	// A finished report becomes durable before the job is announced
	// done: serialize once (these bytes are both the store record and
	// what the transport serves), persist, then flip the state. A crash
	// after the Put re-serves the stored bytes on restart; a crash
	// before it re-runs the sweep, which dedup + the journal make safe.
	var raw []byte
	if state == JobDone && rep != nil {
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err == nil {
			raw = buf.Bytes()
			if s.cfg.Store != nil {
				if perr := s.cfg.Store.Put(job.ID, raw, time.Now()); perr != nil {
					s.cfg.Perf.Counter("sched.store.put_errors").Add(1)
					s.logf("sched: job %s report not persisted: %v", shortID(job.ID), perr)
				}
			}
		}
	}

	dur := time.Since(job.Snapshot().Started)
	job.mu.Lock()
	job.state = state
	job.report = rep
	job.raw = raw
	job.stats = stats
	job.err = terr
	job.finished = time.Now()
	close(job.done)
	job.mu.Unlock()

	s.mu.Lock()
	if s.ewmaDur == 0 {
		s.ewmaDur = dur
	} else {
		s.ewmaDur = (s.ewmaDur*7 + dur) / 8
	}
	s.mu.Unlock()

	switch state {
	case JobDone:
		s.cfg.Perf.Counter("sched.jobs.done").Add(1)
	case JobFailed:
		s.cfg.Perf.Counter("sched.jobs.failed").Add(1)
	case JobInterrupted:
		s.cfg.Perf.Counter("sched.jobs.interrupted").Add(1)
	}
	detail := dur.Round(time.Millisecond).String()
	if js := stats.String(); js != "" {
		detail += "; journal: " + js
	}
	s.logf("sched: job %s %s (%s)", shortID(job.ID), state, detail)
}

// shedQueueLocked evicts every queued job with the typed shed reason.
func (s *Scheduler) shedQueueLocked() {
	for _, job := range s.queue {
		job.mu.Lock()
		job.state = JobShed
		job.err = errors.New(ShedReason)
		job.finished = time.Now()
		close(job.done)
		job.mu.Unlock()
		s.clients[job.Req.ClientKey()]--
		if s.clients[job.Req.ClientKey()] <= 0 {
			delete(s.clients, job.Req.ClientKey())
		}
		s.shed.drain++
		s.cfg.Perf.Counter("sched.shed.drain").Add(1)
		s.logf("sched: job %s shed (drain)", shortID(job.ID))
	}
	s.queue = nil
	s.cfg.Perf.Gauge("sched.queue.depth").Set(0)
}

// Draining reports whether the scheduler has stopped admitting work.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// Drain performs the two-phase graceful shutdown:
//
//  1. Stop admitting: new submissions get a typed DrainingError (HTTP
//     503), queued-but-unstarted jobs are shed with the typed reason.
//  2. Wait for running jobs to finish. If ctx expires first, cancel
//     them — they journal completed runs and stamp the rest interrupted,
//     so a restart + resubmit resumes — and return ErrDrainTimeout.
//
// Drain is idempotent; later calls wait on the same shutdown.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.logf("sched: draining (%d queued shed, %d running)", len(s.queue), s.running)
		s.shedQueueLocked()
	}
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	for s.running > 0 && ctx.Err() == nil {
		s.cond.Wait()
	}
	timedOut := s.running > 0
	s.mu.Unlock()
	if !timedOut {
		return nil
	}
	// Grace expired: preempt. Runs journal as interrupted; nothing lost.
	s.baseCancel()
	s.mu.Lock()
	for s.running > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	return ErrDrainTimeout
}

// Kill cancels every running job without draining or waiting — the
// in-process stand-in for SIGKILL, used by the torture tests. The
// journal's fsync'd records are the only state that survives.
func (s *Scheduler) Kill() { s.baseCancel() }

// Close shuts the scheduler down: shed the queue, cancel running jobs,
// reap workers. Safe after Drain (then the queue is already empty and
// workers are idle).
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.shedQueueLocked()
	s.mu.Unlock()
	s.baseCancel()
	s.cond.Broadcast()
	s.wg.Wait()
}

// Progress aggregates job-level counts and run-level journal progress
// across every known job.
type Progress struct {
	JobsQueued      int `json:"jobs_queued"`
	JobsRunning     int `json:"jobs_running"`
	JobsDone        int `json:"jobs_done"`
	JobsFailed      int `json:"jobs_failed"`
	JobsInterrupted int `json:"jobs_interrupted"`
	JobsShed        int `json:"jobs_shed"`

	// Runs merges per-job journal progress: terminal counts, in-flight
	// labels, event-time bounds. Running jobs contribute their journal's
	// live state (read from disk); finished ones their final tallies.
	Runs journal.Progress `json:"runs"`

	// Shards is the per-shard health banner a router adds to the merged
	// view of its cluster; a single speard leaves it empty.
	Shards []ShardHealth `json:"shards,omitempty"`
}

// ShardState is one shard's liveness as a router sees it.
type ShardState string

const (
	ShardReady    ShardState = "ready"
	ShardDraining ShardState = "draining"
	ShardDown     ShardState = "down"
	ShardUnknown  ShardState = "unknown" // not probed yet
)

// ShardHealth is one entry of the cluster health banner. Error carries
// the detail of a down shard: the failed probe or proxied exchange.
type ShardHealth struct {
	Addr  string     `json:"addr"`
	State ShardState `json:"state"`
	Error string     `json:"error,omitempty"`
}

// Progress computes the aggregate. Reading a running job's journal uses
// the same loader as resume, so the numbers a live spearstat -follow
// shows are exactly the runs a crash at that instant would preserve.
func (s *Scheduler) Progress() Progress {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	fsys := s.cfg.FS
	s.mu.Unlock()
	if fsys == nil {
		fsys = iofault.OS()
	}

	var p Progress
	for _, job := range jobs {
		snap := job.Snapshot()
		switch snap.State {
		case JobQueued:
			p.JobsQueued++
		case JobRunning:
			p.JobsRunning++
		case JobDone:
			p.JobsDone++
		case JobFailed:
			p.JobsFailed++
		case JobInterrupted:
			p.JobsInterrupted++
		case JobShed:
			p.JobsShed++
		}
		dir := s.JournalDir(job.Req)
		if dir == "" || snap.State == JobQueued || snap.State == JobShed {
			continue
		}
		if st, err := journal.LoadFS(fsys, dir); err == nil {
			p.Runs.Merge(st.Progress())
		}
	}
	return p
}

// Merge folds another scheduler's progress into p — the router
// aggregates one Progress per live shard into a cluster-wide view.
// Job counts add; the run-level journal summaries merge through
// journal.Progress.Merge.
func (p *Progress) Merge(q Progress) {
	p.JobsQueued += q.JobsQueued
	p.JobsRunning += q.JobsRunning
	p.JobsDone += q.JobsDone
	p.JobsFailed += q.JobsFailed
	p.JobsInterrupted += q.JobsInterrupted
	p.JobsShed += q.JobsShed
	p.Runs.Merge(q.Runs)
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
