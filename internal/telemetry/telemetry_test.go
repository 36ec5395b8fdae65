package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/task"
)

// fakeClock is a manually advanced clock shared by a tracker and its
// watchdog.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// simSpec is the faultsim spec the tracker tests run.
var simSpec = task.Spec{Kind: task.KindFaultSim, Circuit: "s27"}

// simResult builds a finished faultsim result over axis faults with det
// detections.
func simResult(axis, det int) *task.Result {
	return &task.Result{Kind: task.KindFaultSim, Circuit: "s27", Faults: axis, Detected: det}
}

func TestTrackerETAZeroUnits(t *testing.T) {
	tr := NewRunTracker(Info{RunID: "r0", Kind: "faultsim"}, nil)
	clk := newFakeClock()
	tr.setNow(clk.now)
	s := tr.Snapshot()
	if s.UnitsTotal != 0 || s.FaultsTotal != 0 || s.FaultsDone != 0 {
		t.Fatalf("empty tracker snapshot = %+v, want zeros", s)
	}
	if s.Throughput != 0 {
		t.Fatalf("empty tracker throughput %v, want 0", s.Throughput)
	}
	if len(s.Units) != 0 {
		t.Fatalf("empty tracker lists %d units", len(s.Units))
	}
}

func TestTrackerETASingleUnit(t *testing.T) {
	tr := NewRunTracker(Info{RunID: "r1", Kind: "faultsim"}, nil)
	clk := newFakeClock()
	tr.setNow(clk.now)

	// The run's unit covers the whole axis (Hi = -1): the span is
	// unknown until the result lands.
	tr.UnitStarted(simSpec)
	s := tr.Snapshot()
	if s.UnitsRunning != 1 || s.UnitsTotal != 1 || s.Units[0].Hi != -1 {
		t.Fatalf("running snapshot = %+v", s)
	}
	if s.FaultsTotal != 0 {
		t.Fatalf("whole-axis unit before finish reports FaultsTotal %d, want 0 (unknown)", s.FaultsTotal)
	}

	clk.advance(2 * time.Second)
	tr.UnitFinished(simResult(126, 100), nil)

	s = tr.Snapshot()
	if s.UnitsDone != 1 || s.UnitsRunning != 0 {
		t.Fatalf("finished snapshot = %+v", s)
	}
	if s.FaultsTotal != 126 || s.FaultsDone != 126 || s.Units[0].Hi != 126 {
		t.Fatalf("faults total/done/hi = %d/%d/%d, want 126/126/126", s.FaultsTotal, s.FaultsDone, s.Units[0].Hi)
	}
	if s.Detected != 100 {
		t.Fatalf("detected = %d, want 100", s.Detected)
	}
	// 126 faults over 2s = 63 faults/s.
	if got, want := s.Throughput, 63.0; got != want {
		t.Fatalf("throughput = %v, want %v", got, want)
	}
}

func TestTrackerStallFlaggedAndCleared(t *testing.T) {
	tr := NewRunTracker(Info{RunID: "rN", JobID: "7", Kind: "faultsim"}, nil)
	clk := newFakeClock()
	tr.setNow(clk.now)

	// The run starts, reports one batch, then goes silent past the
	// threshold.
	wd := NewWatchdog(10*time.Second, time.Second, nil)
	wd.now = clk.now
	wd.Register(tr)
	tr.UnitStarted(simSpec)
	tr.Observe(journal.Batch("faultsim", 0, 0, 63, time.Millisecond))
	if st := wd.Sweep(); len(st) != 0 {
		t.Fatalf("fresh unit flagged as stalled: %+v", st)
	}
	clk.advance(11 * time.Second)
	st := wd.Sweep()
	if len(st) != 1 || st[0].Unit != 0 || st[0].RunID != "rN" || st[0].JobID != "7" {
		t.Fatalf("sweep past threshold = %+v, want unit 0 of run rN job 7", st)
	}
	if st[0].Idle < 11*time.Second {
		t.Fatalf("stall idle = %v, want >= 11s", st[0].Idle)
	}
	if again := wd.Sweep(); len(again) != 0 {
		t.Fatalf("second sweep re-reported the same stall: %+v", again)
	}

	s := tr.Snapshot()
	if s.UnitsStalled != 1 || !s.Units[0].Stalled {
		t.Fatalf("snapshot does not carry the stall flag: %+v", s)
	}
	// The one observed batch is the live estimate.
	if got := s.Units[0].Done; got != batchWidth {
		t.Fatalf("live done = %d, want %d (one batch)", got, batchWidth)
	}

	// Progress clears the flag...
	tr.Observe(journal.Detect(1, 5))
	s = tr.Snapshot()
	if s.UnitsStalled != 0 || s.Units[0].Stalled {
		t.Fatalf("stall flag survived progress: %+v", s)
	}
	if s.Units[0].Detected != 1 {
		t.Fatalf("live detected = %d, want 1", s.Units[0].Detected)
	}

	// ...and finishing replaces the live figures with exact ones.
	clk.advance(time.Second)
	tr.UnitFinished(simResult(189, 60), nil)
	wd.Unregister(tr)
	s = tr.Snapshot()
	if s.UnitsDone != 1 || s.FaultsDone != 189 || s.Detected != 60 {
		t.Fatalf("final snapshot = %+v", s)
	}
}

func TestTrackerAsTaskTracker(t *testing.T) {
	// RunTracker must satisfy task.Tracker and survive the context
	// round-trip Run uses.
	var tr task.Tracker = NewRunTracker(Info{RunID: "ctx"}, nil)
	ctx := task.WithTracker(context.Background(), tr)
	if got := task.TrackerFrom(ctx); got != tr {
		t.Fatalf("TrackerFrom returned %v, want the installed tracker", got)
	}
	// A typed-nil tracker stays a safe no-op through every method.
	var nilTr *RunTracker
	nilTr.UnitStarted(task.Spec{})
	nilTr.UnitFinished(nil, nil)
	nilTr.Observe(journal.Event{})
	if s := nilTr.Snapshot(); s != nil {
		t.Fatalf("nil tracker snapshot = %+v, want nil", s)
	}
}

func TestTrackerUnitFailureAndChangeHook(t *testing.T) {
	var buf bytes.Buffer
	// Callers hand the tracker a logger already stamped with run_id (the
	// obsflags session and fsctd both do); mirror that contract here.
	logger := slog.New(slog.NewTextHandler(&buf, nil)).With(slog.String(KeyRunID, "rf"))
	tr := NewRunTracker(Info{RunID: "rf", JobID: "9"}, logger)
	clk := newFakeClock()
	tr.setNow(clk.now)
	bumps := 0
	tr.SetOnChange(func() { bumps++ })

	tr.UnitStarted(simSpec)
	clk.advance(time.Second)
	tr.UnitFinished(&task.Result{Kind: task.KindFaultSim}, fmt.Errorf("boom"))

	s := tr.Snapshot()
	if s.Units[0].Error != "boom" {
		t.Fatalf("unit error = %q, want boom", s.Units[0].Error)
	}
	if s.Throughput != 0 {
		t.Fatalf("failed unit set a throughput: %v", s.Throughput)
	}
	if bumps != 2 {
		t.Fatalf("change hook fired %d times, want 2 (start + finish)", bumps)
	}
	out := buf.String()
	for _, want := range []string{"unit failed", "run_id=rf", "job_id=9", "unit_id=0", "error=boom"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
}

func TestWatchdogDefaultsAndDisable(t *testing.T) {
	wd := NewWatchdog(0, 0, nil)
	if wd.Threshold() != DefaultStallThreshold {
		t.Fatalf("threshold = %v, want default %v", wd.Threshold(), DefaultStallThreshold)
	}
	off := NewWatchdog(-1, 0, nil)
	tr := NewRunTracker(Info{RunID: "off"}, nil)
	clk := newFakeClock()
	tr.setNow(clk.now)
	off.now = clk.now
	off.Register(tr)
	tr.UnitStarted(simSpec)
	clk.advance(time.Hour)
	if st := off.Sweep(); st != nil {
		t.Fatalf("disabled watchdog flagged %+v", st)
	}
}

func TestWatchdogRunLoop(t *testing.T) {
	wd := NewWatchdog(time.Hour, time.Millisecond, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { wd.Run(ctx); close(done) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("watchdog loop did not stop on cancel")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn,
		" Error ": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted a bogus level")
	}
}

func TestNewRunIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewRunID()
		if seen[id] {
			t.Fatalf("duplicate run id %q", id)
		}
		seen[id] = true
	}
}

func TestFanout(t *testing.T) {
	var a, b bytes.Buffer
	h := Fanout(
		slog.NewTextHandler(&a, &slog.HandlerOptions{Level: slog.LevelInfo}),
		slog.NewJSONHandler(&b, &slog.HandlerOptions{Level: slog.LevelWarn}),
	)
	log := slog.New(h).With(slog.String(KeyRunID, "fo"))
	log.Info("only text")
	log.Warn("both")
	if at := a.String(); !strings.Contains(at, "only text") || !strings.Contains(at, "both") {
		t.Fatalf("text sink missing records:\n%s", at)
	}
	bt := b.String()
	if strings.Contains(bt, "only text") {
		t.Fatalf("json sink got a record below its level:\n%s", bt)
	}
	if !strings.Contains(bt, `"both"`) || !strings.Contains(bt, `"run_id":"fo"`) {
		t.Fatalf("json sink missing warn record with attrs:\n%s", bt)
	}
	if Fanout() != (discardHandler{}) {
		t.Fatal("empty fanout is not the discard handler")
	}
	if d := Discard(); d.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("discard logger claims to be enabled")
	}
}
