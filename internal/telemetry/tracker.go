// Package telemetry is the run-level observability layer over the task
// pipeline: where internal/obs aggregates a whole run and
// internal/journal records its event timeline, telemetry answers the
// operational questions a live run raises — which runs are in flight,
// how far along each one is, and whether any of them is stuck.
//
// Three pieces compose:
//
//   - RunTracker implements task.Tracker and accounts one run, which
//     task.Run executes as one unit: start/finish timestamps, a live
//     faults-done estimate fed by the run's journal events (pool
//     batches, detections, ATPG attempts), the exact totals read from
//     the finished task.Result, and the run's throughput;
//   - Watchdog sweeps registered trackers on an interval and flags any
//     running unit whose last progress heartbeat is older than the
//     stall threshold;
//   - the log helpers (NewRunID, ParseLevel, Fanout, Discard) back the
//     CLIs' -log/-logfile flags with slog-based structured logging
//     whose lines carry correlated run_id/job_id/unit_id attributes.
//
// Everything is cheap when unused: a nil *RunTracker is a valid no-op
// tracker, the discard logger drops records before formatting, and the
// journal subscriber does constant work per event under one short mutex.
package telemetry

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/task"
)

// batchWidth is the packed-simulation fault-batch width the evaluators
// shard by (63 faulty machines + the fault-free lane): one observed
// pool batch covers up to this many faults.
const batchWidth = 63

// unitState is the run's unit accounting.
type unitState struct {
	hi      int // resolved axis length; -1 while unknown
	started time.Time
	finish  time.Time
	last    time.Time // last progress heartbeat (any journal event)
	items   int       // pool batch items observed (live estimate input)
	atpg    int       // ATPG attempt events observed
	liveDet int       // detections observed live
	done    int       // exact faults covered, set on finish
	det     int       // exact detections/hits, set on finish
	running bool
	over    bool // finished
	stalled bool
	errMsg  string
}

// faults returns the unit's span, or 0 while unknown.
func (u *unitState) faults() int {
	if u.hi < 0 {
		return 0
	}
	return u.hi
}

// doneEstimate is the unit's faults-done figure: exact once finished,
// otherwise estimated from observed pool batches (each covers up to one
// batchWidth-wide fault batch) and ATPG attempts (one per fault),
// clamped to the unit's span.
func (u *unitState) doneEstimate() int {
	if u.over {
		return u.done
	}
	est := u.items * batchWidth
	if u.atpg > est {
		est = u.atpg
	}
	if f := u.faults(); f > 0 && est > f {
		est = f
	}
	return est
}

// detected returns the unit's detection count: exact once finished,
// live-observed before.
func (u *unitState) detected() int {
	if u.over {
		return u.det
	}
	return u.liveDet
}

// Info names a run for its tracker: the identity attributes stamped on
// every log line and carried in every snapshot.
type Info struct {
	// RunID correlates the run's log lines (KeyRunID).
	RunID string
	// JobID is the daemon job identifier, when the run is a daemon job.
	JobID string
	// Kind and Circuit describe the job.
	Kind    string
	Circuit string
	// TraceID is the run's distributed-trace identity (KeyTraceID),
	// when the run carries one: the hex form of trace.TraceID.
	TraceID string
}

// RunTracker tracks one run, which task.Run executes as unit 0 of 1. It
// implements task.Tracker (thread it with task.WithTracker) and
// consumes the run's journal events via Observe (subscribe it to the
// run's recorder), which doubles as the progress heartbeat the
// watchdog checks. A nil *RunTracker is a valid no-op tracker. Safe for
// concurrent use.
type RunTracker struct {
	info Info
	log  *slog.Logger
	now  func() time.Time // injectable clock (tests)
	onCh func()           // change hook (live SSE hub), may be nil

	mu   sync.Mutex
	u    unitState // zero until UnitStarted
	rate float64   // faults per second of the cleanly finished run
}

// NewRunTracker returns a tracker for one run. logger nil selects the
// discard logger; a non-nil logger should already carry the run_id
// attribute (the tracker stamps only job_id and unit_id).
func NewRunTracker(info Info, logger *slog.Logger) *RunTracker {
	if logger == nil {
		logger = Discard()
	}
	// The logger is expected to carry run_id already (the obsflags
	// session and the daemon both stamp it process-wide); the tracker
	// adds only its own scope.
	if info.JobID != "" {
		logger = logger.With(slog.String(KeyJobID, info.JobID))
	}
	if info.TraceID != "" {
		logger = logger.With(slog.String(KeyTraceID, info.TraceID))
	}
	return &RunTracker{info: info, log: logger, now: time.Now}
}

// SetOnChange installs fn to be called (without the tracker lock held)
// after every unit lifecycle or stall transition — the daemon bumps its
// live-stream hub with it. Call before the run starts.
func (t *RunTracker) SetOnChange(fn func()) {
	if t == nil {
		return
	}
	t.onCh = fn
}

// setNow injects a clock (tests).
func (t *RunTracker) setNow(now func() time.Time) { t.now = now }

// UnitStarted implements task.Tracker: the run's unit starts, its axis
// length unknown until it finishes.
func (t *RunTracker) UnitStarted(sp task.Spec) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.u = unitState{hi: -1, running: true, started: now, last: now}
	t.mu.Unlock()
	t.log.Info("unit started",
		slog.Int(KeyUnitID, 0), slog.Int("units", 1),
		slog.String("kind", sp.Kind), slog.String("circuit", sp.Circuit),
		slog.Int("lo", 0), slog.Int("hi", -1))
	t.changed()
}

// UnitFinished implements task.Tracker: the run's exact totals replace
// the live estimates, and a clean finish sets the run's throughput.
func (t *RunTracker) UnitFinished(res *task.Result, err error) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	u := &t.u
	u.running, u.over, u.stalled = false, true, false
	u.finish, u.last = now, now
	if res != nil && (err == nil || res.Faults > 0) {
		u.hi, u.done = res.Faults, res.Faults
		u.det = resultHits(res)
	}
	if err != nil {
		u.errMsg = err.Error()
	}
	wall := u.finish.Sub(u.started)
	if wall > 0 && u.done > 0 && err == nil {
		t.rate = float64(u.done) / wall.Seconds()
	}
	done, det := u.done, u.det
	t.mu.Unlock()
	attrs := []any{
		slog.Int(KeyUnitID, 0),
		slog.Int("faults", done), slog.Int("detected", det),
		slog.Duration("wall", wall),
	}
	switch {
	case err == nil:
		t.log.Info("unit finished", attrs...)
	case errors.Is(err, context.Canceled):
		t.log.Info("unit canceled", attrs...)
	default:
		t.log.Warn("unit failed", append(attrs, slog.String("error", err.Error()))...)
	}
	t.changed()
}

// Observe consumes one journal event as the running unit's progress
// heartbeat: pool batches and ATPG attempts advance the faults-done
// estimate, detections advance the live detection count, and any event
// clears a stall flag (the unit provably moved). Subscribe it to the
// run's recorder (journal.Recorder.Subscribe); it does constant
// work under one short mutex, so it is safe on the hot emit path.
func (t *RunTracker) Observe(e journal.Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	u := &t.u
	if !u.running {
		t.mu.Unlock()
		return
	}
	u.last = t.now()
	resumed := u.stalled
	u.stalled = false
	switch e.Kind {
	case journal.KindBatch:
		u.items++
	case journal.KindATPG:
		u.atpg++
	case journal.KindDetect:
		u.liveDet++
	}
	t.mu.Unlock()
	if resumed {
		t.log.Info("unit resumed", slog.Int(KeyUnitID, 0))
		t.changed()
	}
}

// markStall flags the running unit when its last heartbeat is older
// than threshold and reports the newly flagged stall. The watchdog
// calls it on every sweep; an already-flagged unit is not re-reported.
func (t *RunTracker) markStall(now time.Time, threshold time.Duration) (Stall, bool) {
	if t == nil || threshold <= 0 {
		return Stall{}, false
	}
	t.mu.Lock()
	u := &t.u
	idle := now.Sub(u.last)
	flag := u.running && !u.stalled && idle > threshold
	if flag {
		u.stalled = true
	}
	t.mu.Unlock()
	if !flag {
		return Stall{}, false
	}
	t.changed()
	return Stall{RunID: t.info.RunID, JobID: t.info.JobID, Idle: idle}, true
}

// changed fires the change hook, if any.
func (t *RunTracker) changed() {
	if t.onCh != nil {
		t.onCh()
	}
}

// resultHits distills a finished run's per-kind "hits" figure — the
// number the dashboard's detected column shows: fault detections
// (faultsim), chain-affecting verdicts (screen), generated tests
// (atpg), resolved candidates (diagnose), detected affecting faults
// (flow).
func resultHits(r *task.Result) int {
	switch r.Kind {
	case task.KindFaultSim:
		return r.Detected
	case task.KindScreen:
		return r.Easy + r.Hard
	case task.KindATPG:
		return r.Found
	case task.KindDiagnose:
		return r.Exact + r.Ambiguous
	case task.KindFlow:
		if r.Report != nil {
			return r.Report.Affecting() - r.Report.Undetected()
		}
	}
	return 0
}

// Stall identifies one newly stalled unit.
type Stall struct {
	// RunID and JobID identify the run the unit belongs to.
	RunID string `json:"run_id,omitempty"`
	JobID string `json:"job_id,omitempty"`
	// Unit is the stalled unit's index (always 0).
	Unit int `json:"unit"`
	// Idle is how long the unit had made no progress when flagged.
	Idle time.Duration `json:"idle_ns"`
}

// UnitSnapshot is one unit's frozen state inside a Snapshot.
type UnitSnapshot struct {
	// Index is the unit's position in its run (always 0).
	Index int `json:"index"`
	// Lo and Hi bound the unit's fault-axis slice: Lo is 0, Hi the
	// axis length (-1 = not yet resolved).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Faults is the unit's span (0 while unknown); Done the faults
	// evaluated so far (estimated live, exact once finished); Detected
	// the unit's per-kind hits.
	Faults   int `json:"faults"`
	Done     int `json:"done"`
	Detected int `json:"detected"`
	// Running, Finished and Stalled are the unit's lifecycle flags.
	Running  bool `json:"running,omitempty"`
	Finished bool `json:"finished,omitempty"`
	Stalled  bool `json:"stalled,omitempty"`
	// WallNS is the unit's execution time so far (final once finished);
	// IdleNS the age of its last progress heartbeat (running units).
	WallNS int64 `json:"wall_ns,omitempty"`
	IdleNS int64 `json:"idle_ns,omitempty"`
	// Error carries the unit's failure, if any.
	Error string `json:"error,omitempty"`
}

// Snapshot is a frozen view of one run's unit progress: the JSON body
// of the daemon's /api/v1/live entries and the input of the fsctstats
// watch dashboard.
type Snapshot struct {
	// RunID, JobID, Kind, Circuit and TraceID echo the tracker's Info.
	RunID   string `json:"run_id,omitempty"`
	JobID   string `json:"job_id,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Circuit string `json:"circuit,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// UnitsTotal is the run's unit count (1 once the run has started,
	// 0 before); UnitsDone/UnitsRunning/UnitsStalled partition it.
	UnitsTotal   int `json:"units_total"`
	UnitsDone    int `json:"units_done"`
	UnitsRunning int `json:"units_running"`
	UnitsStalled int `json:"units_stalled"`
	// FaultsTotal, FaultsDone and Detected sum the per-unit figures,
	// so a finished run's sums equal the report's totals.
	FaultsTotal int `json:"faults_total"`
	FaultsDone  int `json:"faults_done"`
	Detected    int `json:"detected"`
	// Throughput is the finished run's faults per second (0 until it
	// finishes cleanly).
	Throughput float64 `json:"throughput_fps,omitempty"`
	// Units lists the per-unit states in index order.
	Units []UnitSnapshot `json:"units,omitempty"`
}

// Snapshot freezes the tracker's current state. Nil receiver returns
// nil.
func (t *RunTracker) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Snapshot{
		RunID: t.info.RunID, JobID: t.info.JobID,
		Kind: t.info.Kind, Circuit: t.info.Circuit,
		TraceID: t.info.TraceID,
	}
	u := &t.u
	if u.started.IsZero() {
		return s
	}
	us := UnitSnapshot{
		Hi:     u.hi,
		Faults: u.faults(), Done: u.doneEstimate(), Detected: u.detected(),
		Running: u.running, Finished: u.over, Stalled: u.stalled,
		Error: u.errMsg,
	}
	switch {
	case u.over:
		us.WallNS = u.finish.Sub(u.started).Nanoseconds()
	case u.running:
		us.WallNS = now.Sub(u.started).Nanoseconds()
		us.IdleNS = now.Sub(u.last).Nanoseconds()
	}
	s.UnitsTotal = 1
	s.Units = []UnitSnapshot{us}
	s.FaultsTotal, s.FaultsDone, s.Detected = us.Faults, us.Done, us.Detected
	if us.Finished {
		s.UnitsDone = 1
	}
	if us.Running {
		s.UnitsRunning = 1
	}
	if us.Stalled {
		s.UnitsStalled = 1
	}
	s.Throughput = t.rate
	return s
}
