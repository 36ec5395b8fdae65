package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/journal"
	"repro/internal/obs"
)

// countCtx is a context that reports itself cancelled after its Err
// budget is spent: deterministic mid-flow cancellation without timing
// races. Every cancellation checkpoint in the flow calls Err, so the
// budget directly selects how deep the run gets.
type countCtx struct {
	context.Context
	budget int64
	done   chan struct{}
	once   sync.Once
}

func newCountCtx(budget int64) *countCtx {
	return &countCtx{Context: context.Background(), budget: budget, done: make(chan struct{})}
}

func (c *countCtx) Err() error {
	if atomic.AddInt64(&c.budget, -1) < 0 {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

func (c *countCtx) Done() <-chan struct{} { return c.done }

// checkGoroutines fails the test if the goroutine count has not settled
// back to its pre-run level (cancelled runs must still join all
// workers).
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestRunCtxCancelledUpFront: a dead context still yields a non-nil
// (empty) report and a wrapped context.Canceled.
func TestRunCtxCancelledUpFront(t *testing.T) {
	d := s27Design(t, 1)
	before := runtime.NumGoroutine()
	rep, err := RunCtx(cancelledCtx(), d, Params{})
	if rep == nil {
		t.Fatal("cancelled run returned a nil report")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkGoroutines(t, before)
}

// TestRunCtxCancelMidFlow sweeps the cancellation budget so the flow is
// interrupted at every stage boundary — mid-screen, mid-fault-sim,
// mid-ATPG — and must always hand back a partial report, a wrapped
// context.Canceled, and no leaked workers.
func TestRunCtxCancelMidFlow(t *testing.T) {
	d := genDesign(t, 300, 24, 2, 8)
	// An uncancelled reference to know the full budget and expected output.
	full, err := RunCtx(context.Background(), d, Params{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 3, 10, 40, 150, 600} {
		before := runtime.NumGoroutine()
		ctx := newCountCtx(budget)
		rep, err := RunCtx(ctx, d, Params{Workers: 2})
		if rep == nil {
			t.Fatalf("budget %d: nil report", budget)
		}
		if err == nil {
			// Budget larger than the flow's checkpoint count: it ran to
			// completion; the result must match the reference.
			if rep.Undetected() != full.Undetected() {
				t.Errorf("budget %d: complete run diverged", budget)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: err = %v, want context.Canceled", budget, err)
		}
		if rep.Faults == 0 {
			t.Errorf("budget %d: partial report carries no circuit facts", budget)
		}
		checkGoroutines(t, before)
	}
}

// TestScreenCtxCancel: cancellation inside screening surfaces the
// context error and still returns the (partially categorized) slice.
func TestScreenCtxCancel(t *testing.T) {
	d := genDesign(t, 300, 24, 2, 8)
	faults := fault.Collapsed(d.C)
	before := runtime.NumGoroutine()
	out, err := ScreenCtx(cancelledCtx(), d, faults, ScreenOptions{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != len(faults) {
		t.Errorf("partial screen has %d entries, want %d", len(out), len(faults))
	}
	checkGoroutines(t, before)
}

// TestFaultsimCtxCancel: cancellation inside fault simulation returns
// promptly with the context error; unsimulated faults stay undetected.
func TestFaultsimCtxCancel(t *testing.T) {
	d := genDesign(t, 300, 24, 2, 8)
	faults := fault.Collapsed(d.C)
	seq := faultsim.Sequence(d.AlternatingSequence(8))
	before := runtime.NumGoroutine()
	res, err := faultsim.RunCtx(cancelledCtx(), d.C, seq, faults, faultsim.Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, at := range res.DetectedAt {
		if at != -1 {
			t.Fatalf("fault %d marked detected at %d under immediate cancel", i, at)
		}
	}
	checkGoroutines(t, before)

	// Mid-run cancellation keeps whatever detections completed.
	ctx := newCountCtx(3)
	res, err = faultsim.RunCtx(ctx, d.C, seq, faults, faultsim.Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("mid-run cancel dropped the partial result")
	}
}

// TestTransitionCtxCancel covers the transition-fault engine's
// cancellation path through the core wrapper.
func TestTransitionCtxCancel(t *testing.T) {
	d := genDesign(t, 300, 24, 2, 8)
	det, total, undet, err := ChainTransitionCoverageCtx(cancelledCtx(), d, 8, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if det != 0 || len(undet) != total {
		t.Errorf("cancelled transition run claims %d detections (total %d, undet %d)",
			det, total, len(undet))
	}
}

// TestCancelJournalFlush is the flight recorder's interruption
// contract: however deep a run is cancelled (this sweeps the budget
// across mid-screen, mid-fault-sim and mid-ATPG boundaries, like
// TestRunCtxCancelMidFlow), every phase opened in the journal must be
// closed — the flow ends its span on each error return — and the
// snapshot collected so far must export as a loadable Chrome trace.
// This is exactly what the CLIs rely on when SIGINT interrupts a run
// with -tracefile set.
func TestCancelJournalFlush(t *testing.T) {
	d := genDesign(t, 300, 24, 2, 8)
	for _, budget := range []int64{1, 3, 10, 40, 150} {
		col := obs.New()
		rec := journal.New(0)
		col.SetJournal(rec)
		_, err := RunCtx(newCountCtx(budget), d, Params{Workers: 2, Obs: col})
		if err == nil {
			continue // budget outlasted the flow's checkpoints
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: err = %v, want context.Canceled", budget, err)
		}
		events := rec.Snapshot()
		open := map[string]int{}
		for _, e := range events {
			switch e.Kind {
			case journal.KindPhaseBegin:
				open[e.Arg]++
			case journal.KindPhaseEnd:
				open[e.Arg]--
			}
		}
		for name, n := range open {
			if n != 0 {
				t.Errorf("budget %d: phase %q left %d span(s) open after cancel", budget, name, n)
			}
		}
		var buf bytes.Buffer
		if err := journal.WriteTrace(&buf, events, rec.Dropped()); err != nil {
			t.Fatalf("budget %d: WriteTrace: %v", budget, err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("budget %d: trace of interrupted run is not valid JSON: %v", budget, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("budget %d: interrupted trace carries no events", budget)
		}
	}
}

// TestRunCtxNilMatchesRun: a nil context is context.Background — both
// produce the same report.
func TestRunCtxNilMatchesRun(t *testing.T) {
	d := s27Design(t, 1)
	a, err := RunCtx(context.Background(), d, Params{Engine: engine.Bypass()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(nil, d, Params{Engine: engine.Bypass()})
	if err != nil {
		t.Fatal(err)
	}
	if string(canonicalReport(t, a)) != string(canonicalReport(t, b)) {
		t.Error("RunCtx(nil) diverged from RunCtx(context.Background())")
	}
}
