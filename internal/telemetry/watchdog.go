package telemetry

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// DefaultStallThreshold is the no-progress age past which a running
// job is flagged as a straggler when the operator does not override it
// (fsctd -stall). Long enough that a legitimately slow fault batch on
// the big circuits does not trip it, short enough that a wedged job
// surfaces within one dashboard glance.
const DefaultStallThreshold = 30 * time.Second

// Watchdog periodically sweeps a set of RunTrackers and flags runs
// whose progress heartbeat has gone quiet for longer than the stall
// threshold. Flagging is sticky until the run emits again (Observe
// clears it) or finishes; each transition is logged once and surfaces
// in snapshots as the Stalled bit. Safe for concurrent use.
type Watchdog struct {
	threshold time.Duration
	interval  time.Duration
	log       *slog.Logger
	now       func() time.Time // injectable clock (tests)

	// OnStall, when non-nil, is called (outside the watchdog lock) with
	// each sweep's newly flagged runs — the daemon counts them as
	// serve.jobs.stalls. Set before Run.
	OnStall func([]Stall)

	mu       sync.Mutex
	trackers map[*RunTracker]struct{}
}

// NewWatchdog returns a watchdog flagging runs idle longer than
// threshold (0 selects DefaultStallThreshold; negative disables
// flagging), sweeping every interval when driven by Run (0 selects
// threshold/4). logger nil selects the discard logger.
func NewWatchdog(threshold, interval time.Duration, logger *slog.Logger) *Watchdog {
	if threshold == 0 {
		threshold = DefaultStallThreshold
	}
	if interval <= 0 {
		interval = threshold / 4
		if interval <= 0 {
			interval = time.Second
		}
	}
	if logger == nil {
		logger = Discard()
	}
	return &Watchdog{
		threshold: threshold,
		interval:  interval,
		log:       logger,
		now:       time.Now,
		trackers:  make(map[*RunTracker]struct{}),
	}
}

// Threshold returns the stall threshold the watchdog flags at.
func (w *Watchdog) Threshold() time.Duration { return w.threshold }

// Register adds a run's tracker to the sweep set. Unregister it when
// the run ends.
func (w *Watchdog) Register(t *RunTracker) {
	if w == nil || t == nil {
		return
	}
	w.mu.Lock()
	w.trackers[t] = struct{}{}
	w.mu.Unlock()
}

// Unregister removes a tracker from the sweep set.
func (w *Watchdog) Unregister(t *RunTracker) {
	if w == nil || t == nil {
		return
	}
	w.mu.Lock()
	delete(w.trackers, t)
	w.mu.Unlock()
}

// Sweep checks every registered tracker once and returns the runs it
// newly flagged, logging a warning per straggler. Run calls it on the
// tick; tests call it directly with a fake clock.
func (w *Watchdog) Sweep() []Stall {
	if w == nil || w.threshold < 0 {
		return nil
	}
	now := w.now()
	w.mu.Lock()
	ts := make([]*RunTracker, 0, len(w.trackers))
	for t := range w.trackers {
		ts = append(ts, t)
	}
	w.mu.Unlock()
	var all []Stall
	for _, t := range ts {
		if st, ok := t.markStall(now, w.threshold); ok {
			all = append(all, st)
		}
	}
	for _, s := range all {
		// The watchdog's logger carries the process run_id already; the
		// stall's own job scope is what the line must add.
		w.log.Warn("job stalled",
			slog.String(KeyJobID, s.JobID),
			slog.Duration("idle", s.Idle), slog.Duration("threshold", w.threshold))
	}
	if len(all) > 0 && w.OnStall != nil {
		w.OnStall(all)
	}
	return all
}

// Run sweeps on the watchdog's interval until ctx is canceled. The
// daemon runs one watchdog goroutine for all jobs.
func (w *Watchdog) Run(ctx context.Context) {
	tick := time.NewTicker(w.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			w.Sweep()
		}
	}
}
