package telemetry

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
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

// step is one input of the tracker fold: a journal event, a clock
// advance, or (sweep) one watchdog sweep at a 10 s threshold.
type step struct {
	ev    *journal.Event
	adv   time.Duration
	sweep bool
}

func ev(e journal.Event) step      { return step{ev: &e} }
func advance(d time.Duration) step { return step{adv: d} }
func batches(n int) (out []step) {
	for i := 0; i < n; i++ {
		out = append(out, ev(journal.Batch("faultsim", 0, i, n, time.Millisecond)))
	}
	return out
}

// seq concatenates steps.
func seq(parts ...any) (out []step) {
	for _, p := range parts {
		switch p := p.(type) {
		case step:
			out = append(out, p)
		case []step:
			out = append(out, p...)
		}
	}
	return out
}

// TestTrackerFold feeds the tracker event sequences under the fake
// clock and compares the resulting snapshots: the tracker is a function
// of the run's journal events, the clock and the stall flag.
func TestTrackerFold(t *testing.T) {
	with := func(f func(*Snapshot)) Snapshot {
		var s Snapshot
		f(&s)
		return s
	}
	begin, detect := ev(journal.UnitBegin()), ev(journal.Detect(1, 5))
	for _, tc := range []struct {
		name  string
		steps []step
		want  Snapshot
	}{
		{
			// A stand-in executor that never calls task.Run emits no
			// unit_begin: its events are not a run.
			name:  "no_begin",
			steps: seq(batches(2), detect, ev(journal.UnitEnd(126, 3, true, time.Second))),
			want:  Snapshot{},
		},
		{
			name:  "running_before_axis",
			steps: seq(begin, batches(2), detect, advance(time.Second)),
			want: with(func(s *Snapshot) {
				s.Running, s.FaultsDone, s.Detected = true, 126, 1
				s.WallNS, s.IdleNS = int64(time.Second), int64(time.Second)
			}),
		},
		{
			name:  "running_clamped_to_axis",
			steps: seq(begin, ev(journal.Axis(100)), batches(2), advance(time.Second)),
			want: with(func(s *Snapshot) {
				s.Running, s.FaultsTotal, s.FaultsDone = true, 100, 100
				s.WallNS, s.IdleNS = int64(time.Second), int64(time.Second)
			}),
		},
		{
			name: "clean_end",
			steps: seq(begin, ev(journal.Axis(126)), batches(1), detect, advance(2*time.Second),
				ev(journal.UnitEnd(126, 100, true, 2*time.Second))),
			want: with(func(s *Snapshot) {
				s.Finished, s.FaultsTotal, s.FaultsDone, s.Detected = true, 126, 126, 100
				s.Throughput, s.WallNS = 63, int64(2*time.Second) // 126 faults over 2 s
			}),
		},
		{
			// A run canceled after three batches keeps its live estimate
			// and the partial report's hits; it sets no throughput.
			name: "interrupted_end",
			steps: seq(begin, ev(journal.Axis(18629)), batches(3), detect, detect, advance(time.Second),
				ev(journal.UnitEnd(18629, 134, false, time.Second))),
			want: with(func(s *Snapshot) {
				s.Finished, s.FaultsTotal, s.FaultsDone, s.Detected = true, 18629, 189, 134
				s.WallNS = int64(time.Second)
			}),
		},
		{
			// unit_end's -1 (axis never resolved by the result) keeps the
			// axis event's length.
			name: "interrupted_end_axis_unresolved",
			steps: seq(begin, ev(journal.Axis(40)), batches(1), advance(time.Second),
				ev(journal.UnitEnd(-1, 0, false, time.Second))),
			want: with(func(s *Snapshot) {
				s.Finished, s.FaultsTotal, s.FaultsDone = true, 40, 40
				s.WallNS = int64(time.Second)
			}),
		},
		{
			name:  "stall",
			steps: seq(begin, batches(1), advance(11*time.Second), step{sweep: true}),
			want: with(func(s *Snapshot) {
				s.Running, s.Stalled, s.FaultsDone = true, true, 63
				s.WallNS, s.IdleNS = int64(11*time.Second), int64(11*time.Second)
			}),
		},
		{
			name:  "stall_then_heartbeat",
			steps: seq(begin, batches(1), advance(11*time.Second), step{sweep: true}, detect),
			want: with(func(s *Snapshot) {
				s.Running, s.FaultsDone, s.Detected = true, 63, 1
				s.WallNS = int64(11 * time.Second)
			}),
		},
		{
			name: "events_after_end_ignored",
			steps: seq(begin, advance(time.Second), ev(journal.UnitEnd(32, 5, true, time.Second)),
				batches(4), detect, advance(time.Second)),
			want: with(func(s *Snapshot) {
				s.Finished, s.FaultsTotal, s.FaultsDone, s.Detected = true, 32, 32, 5
				s.Throughput, s.WallNS = 32, int64(time.Second)
			}),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			tr := NewRunTracker(Info{JobID: "j1", TraceID: "t"}, nil)
			tr.setNow(clk.now)
			wd := NewWatchdog(10*time.Second, time.Second, nil)
			wd.now = clk.now
			wd.Register(tr)
			for _, st := range tc.steps {
				switch {
				case st.ev != nil:
					tr.Observe(*st.ev)
				case st.sweep:
					wd.Sweep()
				default:
					clk.advance(st.adv)
				}
			}
			if got := tr.Snapshot(); *got != tc.want {
				t.Errorf("snapshot =\n  %+v\nwant\n  %+v", *got, tc.want)
			}
		})
	}
}

func TestTrackerStallFlaggedAndCleared(t *testing.T) {
	tr := NewRunTracker(Info{JobID: "7"}, nil)
	clk := newFakeClock()
	tr.setNow(clk.now)

	// The run starts, reports one batch, then goes silent past the
	// threshold.
	wd := NewWatchdog(10*time.Second, time.Second, nil)
	wd.now = clk.now
	wd.Register(tr)
	tr.Observe(journal.UnitBegin())
	tr.Observe(journal.Batch("faultsim", 0, 0, 63, time.Millisecond))
	if st := wd.Sweep(); len(st) != 0 {
		t.Fatalf("fresh run flagged as stalled: %+v", st)
	}
	clk.advance(11 * time.Second)
	st := wd.Sweep()
	if len(st) != 1 || st[0].JobID != "7" {
		t.Fatalf("sweep past threshold = %+v, want run rN job 7", st)
	}
	if st[0].Idle < 11*time.Second {
		t.Fatalf("stall idle = %v, want >= 11s", st[0].Idle)
	}
	if again := wd.Sweep(); len(again) != 0 {
		t.Fatalf("second sweep re-reported the same stall: %+v", again)
	}
	if !tr.Snapshot().Stalled {
		t.Fatal("snapshot does not carry the stall flag")
	}

	// Progress clears the flag; a later silence is a new stall.
	tr.Observe(journal.Detect(1, 5))
	if tr.Snapshot().Stalled {
		t.Fatal("stall flag survived progress")
	}
	clk.advance(11 * time.Second)
	if st := wd.Sweep(); len(st) != 1 {
		t.Fatalf("second silence flagged %d stalls, want 1", len(st))
	}

	// A finished run is never flagged, however long it sits.
	tr.Observe(journal.UnitEnd(189, 60, true, 22*time.Second))
	clk.advance(time.Hour)
	if st := wd.Sweep(); len(st) != 0 {
		t.Fatalf("finished run flagged: %+v", st)
	}
	if s := tr.Snapshot(); s.Stalled || !s.Finished {
		t.Fatalf("final snapshot = %+v", s)
	}
	wd.Unregister(tr)
}

func TestTrackerUnitFailure(t *testing.T) {
	var buf bytes.Buffer
	// Callers hand the tracker a logger already stamped with run_id (the
	// daemon does); mirror that contract here.
	logger := slog.New(slog.NewTextHandler(&buf, nil)).With(slog.String(KeyRunID, "rf"))
	tr := NewRunTracker(Info{JobID: "9"}, logger)
	clk := newFakeClock()
	tr.setNow(clk.now)

	tr.Observe(journal.UnitBegin())
	tr.Observe(journal.Axis(64))
	tr.Observe(journal.Batch("p", 0, 0, 1, 0))
	clk.advance(time.Minute)
	tr.markStall(clk.now(), time.Second)
	tr.Observe(journal.Detect(1, 1)) // resumed
	clk.advance(time.Second)
	tr.Observe(journal.UnitEnd(64, 1, false, time.Minute))

	s := tr.Snapshot()
	if !s.Finished || s.Running || s.FaultsDone != 63 || s.FaultsTotal != 64 || s.Detected != 1 {
		t.Fatalf("failed run snapshot = %+v", s)
	}
	if s.Throughput != 0 {
		t.Fatalf("failed run set a throughput: %v", s.Throughput)
	}
	out := buf.String()
	for _, want := range []string{"job resumed", "run_id=rf", "job_id=9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 1 {
		t.Fatalf("tracker logged %d lines, want only the resume line:\n%s", n, out)
	}

	// A typed-nil tracker stays a safe no-op through every method.
	var nilTr *RunTracker
	nilTr.Observe(journal.UnitBegin())
	if s := nilTr.Snapshot(); s != nil {
		t.Fatalf("nil tracker snapshot = %+v, want nil", s)
	}
}

func TestWatchdogDefaultsAndDisable(t *testing.T) {
	wd := NewWatchdog(0, 0, nil)
	if wd.Threshold() != DefaultStallThreshold {
		t.Fatalf("threshold = %v, want default %v", wd.Threshold(), DefaultStallThreshold)
	}
	off := NewWatchdog(-1, 0, nil)
	tr := NewRunTracker(Info{}, nil)
	clk := newFakeClock()
	tr.setNow(clk.now)
	off.now = clk.now
	off.Register(tr)
	tr.Observe(journal.UnitBegin())
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
