// Package telemetry is the run-level observability layer over the task
// pipeline: where internal/obs aggregates a whole run and
// internal/journal records its event timeline, telemetry answers the
// operational questions a live daemon job raises — which runs are in
// flight, how far along each one is, and whether any of them is stuck.
//
// Three pieces compose:
//
//   - RunTracker is a fold over one run's journal events: unit_begin
//     starts the run, axis sets its fault-axis length, pool batches,
//     ATPG attempts and detections advance a live faults-done estimate
//     and the progress heartbeat, and unit_end finishes the run with
//     the exact totals it carries. The clock and the watchdog's stall
//     flag are its only other inputs, and its Snapshot is the progress
//     field of the daemon's job view;
//   - Watchdog sweeps registered trackers on an interval and flags any
//     running run whose last progress heartbeat is older than the stall
//     threshold;
//   - the log helpers (NewRunID, ParseLevel, Fanout, Discard) back the
//     CLIs' -log/-logfile flags with slog-based structured logging
//     whose lines carry correlated run_id/job_id attributes.
//
// Everything is cheap when unused: a nil *RunTracker is a valid no-op
// tracker, the discard logger drops records before formatting, and the
// journal subscriber does constant work per event under one short mutex.
package telemetry

import (
	"log/slog"
	"sync"
	"time"

	"repro/internal/journal"
)

// batchWidth is the packed-simulation fault-batch width the evaluators
// shard by (63 faulty machines + the fault-free lane): one observed
// pool batch covers up to this many faults.
const batchWidth = 63

// Info names a run for its tracker: the identity attributes stamped on
// its log lines and stall reports.
type Info struct {
	// JobID is the daemon job identifier, when the run is a daemon job.
	JobID string
	// TraceID is the run's distributed-trace identity (KeyTraceID),
	// when the run carries one: the hex form of trace.TraceID.
	TraceID string
}

// RunTracker folds one run's journal events into its live progress.
// Subscribe Observe to the run's recorder (journal.Recorder.Subscribe);
// every event it takes while the run is in flight doubles as the
// progress heartbeat the watchdog checks. A nil *RunTracker is a valid
// no-op tracker. Safe for concurrent use.
type RunTracker struct {
	info Info
	log  *slog.Logger
	now  func() time.Time // injectable clock (tests)

	mu      sync.Mutex
	started time.Time // zero until unit_begin
	finish  time.Time
	last    time.Time // last progress heartbeat (any journal event)
	axis    int       // fault-axis length; 0 while unknown
	items   int       // pool batch items observed (live estimate input)
	atpg    int       // ATPG attempt events observed
	liveDet int       // detections observed live
	done    int       // faults covered, fixed by unit_end
	det     int       // hits, fixed by unit_end
	running bool
	over    bool // unit_end seen
	stalled bool
	rate    float64 // faults per second of the cleanly finished run
}

// NewRunTracker returns a tracker for one run. logger nil selects the
// discard logger; a non-nil logger should already carry the run_id
// attribute (the tracker stamps only job_id and trace_id).
func NewRunTracker(info Info, logger *slog.Logger) *RunTracker {
	if logger == nil {
		logger = Discard()
	}
	if info.JobID != "" {
		logger = logger.With(slog.String(KeyJobID, info.JobID))
	}
	if info.TraceID != "" {
		logger = logger.With(slog.String(KeyTraceID, info.TraceID))
	}
	return &RunTracker{info: info, log: logger, now: time.Now}
}

// setNow injects a clock (tests).
func (t *RunTracker) setNow(now func() time.Time) { t.now = now }

// Observe folds one journal event into the run's state. unit_begin
// starts the run; while it runs, axis sets the fault-axis length, pool
// batches and ATPG attempts advance the faults-done estimate,
// detections the live detection count, and any event is a heartbeat
// that clears a stall flag (the run provably moved); unit_end finishes
// it. A clean finish fixes faults-done at the axis length and sets the
// throughput; an interrupted one keeps the live estimate, clamped to
// the axis. Events outside a run are ignored. Observe does constant
// work under one short mutex, so it is safe on the hot emit path.
func (t *RunTracker) Observe(e journal.Event) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	if e.Kind == journal.KindUnitBegin {
		t.started, t.last, t.running = now, now, true
		t.mu.Unlock()
		return
	}
	if !t.running {
		t.mu.Unlock()
		return
	}
	t.last = now
	resumed := t.stalled
	t.stalled = false
	switch e.Kind {
	case journal.KindAxis:
		t.axis = int(e.D)
	case journal.KindBatch:
		t.items++
	case journal.KindATPG:
		t.atpg++
	case journal.KindDetect:
		t.liveDet++
	case journal.KindUnitEnd:
		if e.D >= 0 {
			t.axis = int(e.D)
		}
		t.running, t.over, t.finish = false, true, now
		t.det = int(e.A)
		if e.B == 1 {
			t.done = t.axis
			if wall := now.Sub(t.started); wall > 0 && t.done > 0 {
				t.rate = float64(t.done) / wall.Seconds()
			}
		} else {
			t.done = t.estimate()
		}
	}
	t.mu.Unlock()
	if resumed && e.Kind != journal.KindUnitEnd {
		t.log.Info("job resumed")
	}
}

// estimate is the running run's faults-done figure: observed pool
// batches (each covers up to one batchWidth-wide fault batch) or ATPG
// attempts (one per fault), whichever is larger, clamped to the axis
// once it is known. Callers hold t.mu.
func (t *RunTracker) estimate() int {
	est := max(t.items*batchWidth, t.atpg)
	if t.axis > 0 && est > t.axis {
		est = t.axis
	}
	return est
}

// markStall flags the running run when its last heartbeat is older
// than threshold and reports the newly flagged stall. The watchdog
// calls it on every sweep; an already-flagged run is not re-reported.
func (t *RunTracker) markStall(now time.Time, threshold time.Duration) (Stall, bool) {
	if t == nil || threshold <= 0 {
		return Stall{}, false
	}
	t.mu.Lock()
	idle := now.Sub(t.last)
	flag := t.running && !t.stalled && idle > threshold
	if flag {
		t.stalled = true
	}
	t.mu.Unlock()
	if !flag {
		return Stall{}, false
	}
	return Stall{JobID: t.info.JobID, Idle: idle}, true
}

// Stall identifies one newly stalled run.
type Stall struct {
	// JobID identifies the stalled run.
	JobID string `json:"job_id,omitempty"`
	// Idle is how long the run had made no progress when flagged.
	Idle time.Duration `json:"idle_ns"`
}

// Snapshot is a frozen view of one run's progress: the progress field
// of the daemon's job view and the input of the fsctstats watch
// dashboard. The view around it carries the job's identity.
type Snapshot struct {
	// Running, Finished and Stalled are the run's lifecycle flags (all
	// false before unit_begin).
	Running  bool `json:"running,omitempty"`
	Finished bool `json:"finished,omitempty"`
	Stalled  bool `json:"stalled,omitempty"`
	// FaultsTotal is the fault-axis length (0 while unknown);
	// FaultsDone the faults evaluated (estimated live, exact once the
	// run finishes cleanly); Detected the run's per-kind hits (counted
	// live, exact once it finishes). A clean finish's figures equal the
	// report's totals.
	FaultsTotal int `json:"faults_total"`
	FaultsDone  int `json:"faults_done"`
	Detected    int `json:"detected"`
	// Throughput is the finished run's faults per second (0 until it
	// finishes cleanly).
	Throughput float64 `json:"throughput_fps,omitempty"`
	// WallNS is the run's execution time so far (final once finished);
	// IdleNS the age of its last progress heartbeat (running runs).
	WallNS int64 `json:"wall_ns,omitempty"`
	IdleNS int64 `json:"idle_ns,omitempty"`
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
	s := &Snapshot{}
	if t.started.IsZero() {
		return s
	}
	s.Running, s.Finished, s.Stalled = t.running, t.over, t.stalled
	s.FaultsTotal, s.Throughput = t.axis, t.rate
	if t.over {
		s.FaultsDone, s.Detected = t.done, t.det
		s.WallNS = t.finish.Sub(t.started).Nanoseconds()
	} else {
		s.FaultsDone, s.Detected = t.estimate(), t.liveDet
		s.WallNS = now.Sub(t.started).Nanoseconds()
		s.IdleNS = now.Sub(t.last).Nanoseconds()
	}
	return s
}
