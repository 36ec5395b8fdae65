// Package telemetry is the unit-level observability layer over the task
// pipeline: where internal/obs aggregates a whole run and
// internal/journal records its event timeline, telemetry answers the
// operational questions a live run raises — which work-units are in
// flight, how far along is each one, is any of them stuck, and when
// will the run finish.
//
// Three pieces compose:
//
//   - RunTracker implements task.Tracker and accounts every task.Unit
//     of one run: start/finish timestamps, a live faults-done estimate
//     fed by the run's journal events (pool batches, detections, ATPG
//     attempts), exact per-unit totals folded in from the finished
//     Partial, a throughput EWMA and the ETA derived from it;
//   - Watchdog sweeps registered trackers on an interval and flags any
//     running unit whose last progress heartbeat is older than the
//     stall threshold — the seed of straggler re-dispatch: a flagged
//     unit is exactly the unit a coordinator would re-ship;
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

// ewmaAlpha weights the newest unit's throughput sample in the
// exponential moving average: high enough to track a phase change
// within a few units, low enough that one outlier unit does not swing
// the ETA.
const ewmaAlpha = 0.4

// unitState is one unit's mutable accounting.
type unitState struct {
	index   int
	lo, hi  int // resolved span; hi = -1 while unknown (whole-axis unit)
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
	return u.hi - u.lo
}

// doneEstimate is the unit's faults-done figure: exact once finished,
// otherwise estimated from observed pool batches (each covers up to one
// BatchWidth-wide fault batch) and ATPG attempts (one per fault),
// clamped to the unit's span.
func (u *unitState) doneEstimate() int {
	if u.over {
		return u.done
	}
	est := u.items * task.BatchWidth
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

// RunTracker tracks every task.Unit of one run. It implements
// task.Tracker (thread it with task.WithTracker) and consumes the
// run's journal events via Observe (subscribe it to the run's recorder),
// which doubles as the per-unit progress heartbeat the watchdog checks.
// A nil *RunTracker is a valid no-op tracker. Safe for concurrent use.
type RunTracker struct {
	info Info
	log  *slog.Logger
	now  func() time.Time // injectable clock (tests)
	onCh func()           // change hook (live SSE hub), may be nil

	mu     sync.Mutex
	units  map[int]*unitState
	count  int // plan's unit count, once known
	cur    int // index of the running unit, -1 when none
	ewma   float64
	doneN  int // finished units
	doneF  int // exact faults covered by finished units
	detN   int // exact detections by finished units
	axis   int // full fault-axis length, once known
	closed bool
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
	return &RunTracker{
		info:  info,
		log:   logger,
		now:   time.Now,
		cur:   -1,
		units: make(map[int]*unitState),
	}
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

// SetPlan pre-registers a plan's units so snapshots show the whole
// shard map — spans and all — before any unit has started. Optional:
// trackers learn units lazily from UnitStarted otherwise.
func (t *RunTracker) SetPlan(units []task.Unit) {
	if t == nil || len(units) == 0 {
		return
	}
	t.mu.Lock()
	t.count = units[0].Count
	for _, u := range units {
		t.unitLocked(u)
	}
	t.mu.Unlock()
}

// unitLocked returns (creating if needed) the state slot for u.
func (t *RunTracker) unitLocked(u task.Unit) *unitState {
	st := t.units[u.Index]
	if st == nil {
		st = &unitState{index: u.Index, lo: u.Lo, hi: u.Hi}
		t.units[u.Index] = st
	}
	if u.Count > t.count {
		t.count = u.Count
	}
	return st
}

// UnitStarted implements task.Tracker: the unit becomes the tracker's
// current heartbeat target.
func (t *RunTracker) UnitStarted(u task.Unit) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	st := t.unitLocked(u)
	st.running, st.over, st.stalled = true, false, false
	st.started, st.last = now, now
	t.cur = u.Index
	t.mu.Unlock()
	t.log.Info("unit started",
		slog.Int(KeyUnitID, u.Index), slog.Int("units", u.Count),
		slog.String("kind", u.Spec.Kind), slog.String("circuit", u.Spec.Circuit),
		slog.Int("lo", u.Lo), slog.Int("hi", u.Hi))
	t.changed()
}

// UnitFinished implements task.Tracker: the unit's exact totals replace
// the live estimates and fold into the run's throughput EWMA.
func (t *RunTracker) UnitFinished(u task.Unit, p *task.Partial, err error) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	st := t.unitLocked(u)
	wasOver := st.over
	st.running, st.over, st.stalled = false, true, false
	st.finish, st.last = now, now
	if p != nil {
		st.lo, st.hi = p.Lo, p.Hi
		st.done = p.Hi - p.Lo
		st.det = partialHits(p)
		if p.Faults > t.axis {
			t.axis = p.Faults
		}
	}
	if err != nil {
		st.errMsg = err.Error()
	}
	if t.cur == u.Index {
		t.cur = -1
	}
	if !wasOver {
		t.doneN++
		t.doneF += st.done
		t.detN += st.det
		if wall := st.finish.Sub(st.started); wall > 0 && st.done > 0 && err == nil {
			rate := float64(st.done) / wall.Seconds()
			if t.ewma == 0 {
				t.ewma = rate
			} else {
				t.ewma = ewmaAlpha*rate + (1-ewmaAlpha)*t.ewma
			}
		}
	}
	wall := st.finish.Sub(st.started)
	t.mu.Unlock()
	attrs := []any{
		slog.Int(KeyUnitID, u.Index),
		slog.Int("faults", st.done), slog.Int("detected", st.det),
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

// Observe consumes one journal event as the current unit's progress
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
	st := t.units[t.cur]
	if st == nil || !st.running {
		t.mu.Unlock()
		return
	}
	st.last = t.now()
	resumed := st.stalled
	st.stalled = false
	switch e.Kind {
	case journal.KindBatch:
		st.items++
	case journal.KindATPG:
		st.atpg++
	case journal.KindDetect:
		st.liveDet++
	}
	idx := st.index
	t.mu.Unlock()
	if resumed {
		t.log.Info("unit resumed", slog.Int(KeyUnitID, idx))
		t.changed()
	}
}

// markStalls flags every running unit whose last heartbeat is older
// than threshold and returns the newly flagged unit indices with their
// idle durations. The watchdog calls it on every sweep; already-flagged
// units are not re-reported.
func (t *RunTracker) markStalls(now time.Time, threshold time.Duration) []Stall {
	if t == nil || threshold <= 0 {
		return nil
	}
	var out []Stall
	t.mu.Lock()
	for _, st := range t.units {
		if !st.running || st.stalled {
			continue
		}
		if idle := now.Sub(st.last); idle > threshold {
			st.stalled = true
			out = append(out, Stall{
				RunID: t.info.RunID, JobID: t.info.JobID,
				Unit: st.index, Idle: idle,
			})
		}
	}
	t.mu.Unlock()
	if len(out) > 0 {
		t.changed()
	}
	return out
}

// changed fires the change hook, if any.
func (t *RunTracker) changed() {
	if t.onCh != nil {
		t.onCh()
	}
}

// partialHits distills a finished partial's per-kind "hits" figure —
// the number the dashboard's detected column shows: fault detections
// (faultsim), chain-affecting verdicts (screen), generated tests
// (atpg), resolved candidates (diagnose), detected affecting faults
// (flow).
func partialHits(p *task.Partial) int {
	switch p.Kind {
	case task.KindFaultSim:
		n := 0
		for _, d := range p.DetectedAt {
			if d >= 0 {
				n++
			}
		}
		return n
	case task.KindScreen:
		return p.Easy + p.Hard
	case task.KindATPG:
		return p.Found
	case task.KindDiagnose:
		return p.Exact + p.Ambiguous
	case task.KindFlow:
		if p.Report != nil {
			return p.Report.Affecting() - p.Report.Undetected()
		}
	}
	return 0
}

// Stall identifies one newly stalled unit.
type Stall struct {
	// RunID and JobID identify the run the unit belongs to.
	RunID string `json:"run_id,omitempty"`
	JobID string `json:"job_id,omitempty"`
	// Unit is the stalled unit's index.
	Unit int `json:"unit"`
	// Idle is how long the unit had made no progress when flagged.
	Idle time.Duration `json:"idle_ns"`
}

// UnitSnapshot is one unit's frozen state inside a Snapshot.
type UnitSnapshot struct {
	// Index is the unit's position in its plan.
	Index int `json:"index"`
	// Lo and Hi bound the unit's fault-axis slice (Hi -1 = not yet
	// resolved).
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
	// UnitsTotal is the plan's unit count (0 while unknown);
	// UnitsDone/UnitsRunning/UnitsStalled partition the known units.
	UnitsTotal   int `json:"units_total"`
	UnitsDone    int `json:"units_done"`
	UnitsRunning int `json:"units_running"`
	UnitsStalled int `json:"units_stalled"`
	// FaultsTotal sums the known unit spans (the full axis once every
	// span is resolved); FaultsDone and Detected sum the per-unit
	// figures, so a finished run's sums equal the merged report's
	// totals.
	FaultsTotal int `json:"faults_total"`
	FaultsDone  int `json:"faults_done"`
	Detected    int `json:"detected"`
	// Throughput is the faults-per-second EWMA over finished units;
	// ETANS the remaining-work estimate derived from it (0 = unknown).
	Throughput float64 `json:"throughput_fps,omitempty"`
	ETANS      int64   `json:"eta_ns,omitempty"`
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
		TraceID:    t.info.TraceID,
		UnitsTotal: t.count,
	}
	for i := 0; i < t.count || len(s.Units) < len(t.units); i++ {
		st := t.units[i]
		if st == nil {
			if i >= t.count {
				break
			}
			s.Units = append(s.Units, UnitSnapshot{Index: i, Hi: -1})
			continue
		}
		us := UnitSnapshot{
			Index: st.index, Lo: st.lo, Hi: st.hi,
			Faults: st.faults(), Done: st.doneEstimate(), Detected: st.detected(),
			Running: st.running, Finished: st.over, Stalled: st.stalled,
			Error: st.errMsg,
		}
		switch {
		case st.over:
			us.WallNS = st.finish.Sub(st.started).Nanoseconds()
		case st.running:
			us.WallNS = now.Sub(st.started).Nanoseconds()
			us.IdleNS = now.Sub(st.last).Nanoseconds()
		}
		s.Units = append(s.Units, us)
		s.FaultsTotal += us.Faults
		s.FaultsDone += us.Done
		s.Detected += us.Detected
		if us.Finished {
			s.UnitsDone++
		}
		if us.Running {
			s.UnitsRunning++
		}
		if us.Stalled {
			s.UnitsStalled++
		}
	}
	if t.axis > s.FaultsTotal {
		s.FaultsTotal = t.axis
	}
	s.Throughput = t.ewma
	if remaining := s.FaultsTotal - s.FaultsDone; remaining > 0 && t.ewma > 0 {
		s.ETANS = int64(float64(remaining) / t.ewma * 1e9)
	}
	return s
}
