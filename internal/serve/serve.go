// Package serve is the service layer behind cmd/fsctd: a long-lived
// HTTP/JSON daemon that runs screening, ATPG, fault-simulation and
// diagnosis jobs concurrently over the same library facade the batch
// CLIs use, producing byte-identical reports.
//
// The layer composes machinery that already existed for single runs:
//
//   - jobs are admitted into a bounded priority queue (admission
//     control rejects past the bound; higher priority runs earlier,
//     FIFO within a priority) and executed by a fixed runner pool,
//     each under its own context.Context so per-job cancellation rides
//     the cooperative-cancellation plumbing of the facade's *Ctx calls;
//   - every job gets a private flight recorder (internal/journal) whose
//     event stream is bridged to Server-Sent Events, so clients watch
//     per-job progress live;
//   - the shared engine cache is byte-budgeted: the daemon configures
//     LRU eviction (engine.Cache.SetBudget) so artifact memory stays
//     bounded across tenants churning through many circuits;
//   - finished jobs append to the run ledger immediately (one record
//     per job, carrying ledger.ServerMeta), and the job table keeps
//     only the most recently finished ones (maxRetainedJobs), so a
//     long-lived daemon's memory stays bounded; /metrics exposes the
//     server's lifetime counters plus live cache occupancy in the
//     OpenMetrics text format (internal/obs).
//
// See SERVICE.md at the repository root for the operator's handbook:
// the full endpoint reference, the SSE stream format, queue semantics
// and cache tuning guidance.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/task"
	"repro/internal/telemetry"
)

// LedgerSink receives one completed ledger record per finished job.
// obsflags.Session.AppendRun satisfies it, keeping this package free of
// the cmd-internal flag plumbing.
type LedgerSink interface {
	AppendRun(rec ledger.Record, exit int, wall time.Duration) error
}

// Config tunes a Server. The zero value is usable: default queue bound
// and runner count, a fresh unbudgeted cache, no ledger.
type Config struct {
	// QueueLimit bounds the number of queued (admitted but not yet
	// running) jobs; submissions past the bound are rejected with HTTP
	// 429. 0 selects DefaultQueueLimit.
	QueueLimit int
	// Runners is the number of concurrent job executors. 0 selects
	// GOMAXPROCS capped at 4 (each job parallelizes internally via its
	// Workers spec; more runners mostly adds memory pressure).
	Runners int
	// CacheBudget is the engine cache's byte budget (see
	// engine.Cache.SetBudget); 0 leaves bytes unbounded.
	CacheBudget int64
	// CacheEntries is the engine cache's entry bound; 0 selects
	// engine.DefaultMaxEntries.
	CacheEntries int
	// Cache supplies the artifact cache to serve from. Nil builds a
	// fresh private cache (not engine.Default(), so the daemon's budget
	// cannot evict entries other library users rely on).
	Cache *engine.Cache
	// Ledger, when non-nil, receives one immediately-appended ledger
	// record per finished job (pass the obsflags session).
	Ledger LedgerSink
	// LedgerPath is the JSONL ledger the /api/v1/history endpoint
	// reads. Typically the same path the Session appends to; empty
	// disables the endpoint.
	LedgerPath string
	// StallThreshold is the no-progress age past which the straggler
	// watchdog flags a running unit (surfaced on /api/v1/live and as a
	// warning log). 0 selects telemetry.DefaultStallThreshold; negative
	// disables stall detection.
	StallThreshold time.Duration
	// Logger receives the daemon's structured logs (request lines, job
	// lifecycle, stall warnings), each stamped with RunID. Nil discards.
	Logger *slog.Logger
	// RunID correlates this daemon process's log lines (pass the
	// obsflags session's run id). Empty mints a fresh one.
	RunID string
}

// DefaultQueueLimit bounds the job queue when Config.QueueLimit is 0.
const DefaultQueueLimit = 64

// maxRetainedJobs bounds how many terminal jobs the job table keeps;
// past it the jobs that finished first are evicted, and their IDs
// answer 404. A finished job retains ~0.12 MB (its journal, output and
// metrics: 26 MB over 225 jobs of the benchmark's daemon-hot mix), so
// the table holds at most ~60 MB of finished jobs. Queued and running
// jobs are never evicted; the ledger stays the durable history. A
// variable so tests can lower it.
var maxRetainedJobs = 512

// Server owns the job table, the queue, the runner pool and the engine
// cache. Construct with New, expose with Handler, shut down with Close.
type Server struct {
	cfg   Config
	cache *engine.Cache
	col   *obs.Collector // server-lifetime counters behind /metrics
	sess  LedgerSink
	start time.Time
	log   *slog.Logger
	runID string

	watchdog *telemetry.Watchdog
	liveHub  *hub // bumped on any job's unit-progress transition

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	q *jobQueue

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	finished []string // terminal jobs in finishing order, for eviction
	nextID   int64
}

// New builds a server and starts its runner pool.
func New(cfg Config) *Server {
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	if cfg.Runners <= 0 {
		cfg.Runners = runtime.GOMAXPROCS(0)
		if cfg.Runners > 4 {
			cfg.Runners = 4
		}
	}
	cache := cfg.Cache
	if cache == nil {
		cache = engine.New()
	}
	if cfg.CacheBudget > 0 {
		cache.SetBudget(cfg.CacheBudget)
	}
	if cfg.CacheEntries > 0 {
		cache.SetMaxEntries(cfg.CacheEntries)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = telemetry.Discard()
	}
	runID := cfg.RunID
	if runID == "" {
		// A caller-supplied RunID means the caller's logger already
		// stamps run_id on every line (the obsflags session does); only
		// a minted one needs attaching here.
		runID = telemetry.NewRunID()
		logger = logger.With(slog.String(telemetry.KeyRunID, runID))
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		col:     obs.New(),
		sess:    cfg.Ledger,
		start:   time.Now(),
		log:     logger,
		runID:   runID,
		liveHub: newHub(),
		ctx:     ctx,
		stop:    stop,
		q:       newJobQueue(cfg.QueueLimit),
		jobs:    make(map[string]*Job),
	}
	s.watchdog = telemetry.NewWatchdog(cfg.StallThreshold, 0, logger)
	s.watchdog.OnStall = func(stalls []telemetry.Stall) {
		s.col.Counter("serve.units.stalls").Add(int64(len(stalls)))
		s.liveHub.bump()
	}
	s.wg.Add(cfg.Runners + 1)
	go func() {
		defer s.wg.Done()
		s.watchdog.Run(ctx)
	}()
	for i := 0; i < cfg.Runners; i++ {
		go s.runner()
	}
	return s
}

// Watchdog returns the server's straggler watchdog (tests sweep it with
// a fake clock).
func (s *Server) Watchdog() *telemetry.Watchdog { return s.watchdog }

// Cache returns the server's engine cache (tests inspect its Stats).
func (s *Server) Cache() *engine.Cache { return s.cache }

// Close stops accepting queue pops, cancels every running job, and
// waits for the runner pool to drain. Queued jobs that never ran are
// marked canceled. Safe to call once; the HTTP handler should be shut
// down first so no submissions race the teardown.
func (s *Server) Close() {
	s.stop()    // cancels every job context
	s.q.close() // wakes idle runners
	s.wg.Wait()
	// Jobs still queued at teardown never reached a runner.
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.status == StatusQueued {
			j.status = StatusCanceled
			j.errMsg = "server shutting down"
			j.finished = time.Now()
			j.mu.Unlock()
			j.hub.close()
		} else {
			j.mu.Unlock()
		}
	}
	s.liveHub.close()
	s.log.Info("server stopped", slog.Duration("uptime", time.Since(s.start)))
}

// Submit validates and admits one job. It returns the registered job,
// or ErrQueueFull when admission control rejects it, or a validation
// error.
func (s *Server) Submit(sp task.Spec) (*Job, error) {
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	// Register under the same lock as the push, so no runner can finish
	// (and retire) the job before it is in the table.
	s.mu.Lock()
	s.nextID++
	j := newJob(s.ctx, s.nextID, sp)
	err := s.q.push(j)
	if err == nil {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	s.mu.Unlock()
	if err != nil {
		j.cancel()
		s.col.Counter("serve.jobs.rejected").Inc()
		s.log.Warn("job rejected",
			slog.String("kind", sp.Kind), slog.String("circuit", sp.Circuit),
			slog.String("error", err.Error()))
		return nil, err
	}
	s.col.Counter("serve.jobs.submitted").Inc()
	s.log.Info("job submitted",
		slog.String(telemetry.KeyJobID, j.id),
		slog.String(telemetry.KeyTraceID, j.tctx.Trace.String()),
		slog.String("kind", sp.Kind), slog.String("circuit", sp.Circuit),
		slog.Int("units", sp.Units), slog.Int("priority", sp.Priority))
	return j, nil
}

// Job returns the job registered under id, or nil when the ID is
// unknown or its job was evicted (see maxRetainedJobs).
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs returns every retained job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels the named job: a queued job is withdrawn without ever
// running, a running job's context fires and the job winds down at the
// facade's next cancellation point (its partial output and metrics are
// kept). Returns false when the job is unknown or already terminal.
func (s *Server) Cancel(id string) bool {
	j := s.Job(id)
	if j == nil {
		return false
	}
	j.mu.Lock()
	switch j.status {
	case StatusQueued:
		j.status = StatusCanceled
		j.errMsg = "canceled before start"
		now := time.Now()
		j.finished = now
		j.queueWait = now.Sub(j.submitted)
		j.mu.Unlock()
		s.q.remove(j)
		j.cancel()
		s.col.Counter("serve.jobs.canceled").Inc()
		s.record(j, nil, nil)
		j.hub.close()
		s.retire(j)
		return true
	case StatusRunning:
		j.mu.Unlock()
		j.cancel()
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// runner is one executor: it pops admitted jobs until the queue closes.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		j := s.q.pop()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one popped job end to end: status transitions, the
// unit tracker and watchdog registration, the task pipeline, terminal
// accounting, the SSE close and the ledger record.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.status != StatusQueued { // canceled between pop and here
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.queueWait = j.started.Sub(j.submitted)
	tracker := telemetry.NewRunTracker(telemetry.Info{
		RunID: s.runID, JobID: j.id,
		Kind: j.spec.Kind, Circuit: j.spec.Circuit,
		TraceID: j.tctx.Trace.String(),
	}, s.log)
	j.tracker = tracker
	j.mu.Unlock()
	// Unit transitions wake both the job's own SSE stream and the
	// server-wide live stream; journal events (which keep waking the job
	// stream through its own subscription) are the tracker's progress
	// heartbeat while the job runs.
	tracker.SetOnChange(func() {
		j.hub.bump()
		s.liveHub.bump()
	})
	untrack := j.rec.Subscribe(tracker.Observe)
	s.watchdog.Register(tracker)
	defer s.watchdog.Unregister(tracker)
	j.hub.bump()
	s.log.Info("job started",
		slog.String(telemetry.KeyJobID, j.id),
		slog.String("kind", j.spec.Kind), slog.String("circuit", j.spec.Circuit),
		slog.Duration("queue_wait", j.queueWait))

	col := obs.New()
	col.SetJournal(j.rec)
	res, err := s.execute(task.WithTracker(j.ctx, tracker), j, tracker, col)
	untrack()

	j.mu.Lock()
	j.finished = time.Now()
	if res != nil {
		j.output = res.Output
		j.hash = res.Hash // trace resource attribute
	}
	var counter string
	switch {
	case err == nil:
		j.status = StatusDone
		counter = "serve.jobs.done"
	case errors.Is(err, context.Canceled):
		j.status = StatusCanceled
		j.errMsg = "canceled"
		counter = "serve.jobs.canceled"
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
		counter = "serve.jobs.failed"
	}
	status := j.status
	wall := j.finished.Sub(j.started)
	j.mu.Unlock()
	j.cancel() // release the context's resources
	s.col.Counter(counter).Inc()
	attrs := []any{
		slog.String(telemetry.KeyJobID, j.id),
		slog.String("status", string(status)), slog.Duration("wall", wall),
	}
	if err != nil && status == StatusFailed {
		s.log.Warn("job finished", append(attrs, slog.String("error", err.Error()))...)
	} else {
		s.log.Info("job finished", attrs...)
	}
	// Count and record before closing the hub: a client whose SSE stream
	// ends on "done" then finds the job in the counters and the ledger.
	s.record(j, col.Snapshot(), res)
	j.hub.close()
	s.liveHub.bump()
	s.retire(j)
}

// retire enters the terminal job j into the eviction order and evicts
// the jobs that finished first while more than maxRetainedJobs are
// retained.
func (s *Server) retire(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, j.id)
	for len(s.finished) > maxRetainedJobs {
		id := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, id)
		s.order = slices.DeleteFunc(s.order, func(o string) bool { return o == id })
	}
}

// runUnits executes a planned job. It is a variable so tests can swap in
// an executor that panics.
var runUnits = task.RunUnits

// execute plans and runs the job on the calling runner. A panic on that
// path (an engine invariant tripped by one spec), or on one of its
// worker pools (par forwards those to the runner), fails this job
// alone: it is logged with the panicking goroutine's stack and returned
// as the job's error, so the runner survives and other tenants' jobs
// keep running.
func (s *Server) execute(ctx context.Context, j *Job, tracker *telemetry.RunTracker, col *obs.Collector) (res *task.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			if wp, ok := p.(*par.WorkerPanic); ok {
				stack = wp.Stack
			}
			s.log.Error("job panicked",
				slog.String(telemetry.KeyJobID, j.id),
				slog.Any("panic", p), slog.String("stack", string(stack)))
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	// Plan explicitly (rather than task.Run) so the tracker knows the
	// whole shard map before the first unit starts; the merged result is
	// byte-identical to task.Run's at any unit count.
	units, err := task.Plan(j.spec, j.spec.Units, s.cache)
	if err != nil {
		return nil, err
	}
	tracker.SetPlan(units)
	return runUnits(ctx, units, s.cache, col)
}

// record appends the job's ledger record immediately (daemons cannot
// defer durability to process exit the way one-shot CLIs do). No-op
// without a session or when the session has no -ledger.
func (s *Server) record(j *Job, m *obs.Metrics, res *task.Result) {
	if s.sess == nil {
		return
	}
	var circuit string
	var hash uint64
	var extras map[string]float64
	if res != nil {
		circuit, hash, extras = res.Circuit, res.Hash, res.Extras
	}
	rec := ledger.NewRecord(circuit, hash, m, extras)
	j.mu.Lock()
	rec.Server = &ledger.ServerMeta{
		JobID:    j.id,
		Kind:     j.spec.Kind,
		Priority: j.spec.Priority,
		Status:   string(j.status),
		QueueNS:  j.queueWait.Nanoseconds(),
	}
	exit := 0
	if j.status != StatusDone {
		exit = 1
	}
	wall := j.finished.Sub(j.started)
	if j.started.IsZero() { // canceled while queued
		wall = 0
	}
	j.mu.Unlock()
	_ = s.sess.AppendRun(rec, exit, wall)
}
