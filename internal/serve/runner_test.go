package serve

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/task"
)

// ledgerRecs collects the ledger records a server appends.
type ledgerRecs struct{ recs []ledger.Record }

func (l *ledgerRecs) AppendRun(rec ledger.Record, exit int, _ time.Duration) error {
	rec.Exit = exit
	l.recs = append(l.recs, rec)
	return nil
}

// waitTerminal blocks until the job reaches a terminal state.
func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for !j.Status().Terminal() {
		select {
		case <-j.hub.wait():
		case <-deadline:
			t.Fatalf("job %s stuck in %s", j.ID(), j.Status())
		}
	}
}

func TestRunnerPanicFailsOnlyThatJob(t *testing.T) {
	orig := runUnits
	t.Cleanup(func() { runUnits = orig })
	runUnits = func(ctx context.Context, units []task.Unit, cache *engine.Cache, col *obs.Collector) (*task.Result, error) {
		if units[0].Spec.Kind == KindScreen { // panic on a pool worker
			par.Do(2, 4, func(_, i int) {
				if i == 3 {
					panic("core: injected worker panic")
				}
			})
		}
		return orig(ctx, units, cache, col)
	}
	var logs bytes.Buffer
	sink := &ledgerRecs{}
	s := New(Config{Runners: 1, Ledger: sink,
		Logger: slog.New(slog.NewTextHandler(&logs, nil))})

	bad, err := s.Submit(Spec{Kind: KindScreen, Circuit: "s27"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, bad)
	// The same runner survives and serves the next job.
	good, err := s.Submit(Spec{Kind: KindATPG, Circuit: "s27"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, good)
	s.Close()

	v := bad.View()
	if v.Status != StatusFailed || !strings.Contains(v.Error, "panic: core: injected worker panic") {
		t.Errorf("panicking job: status %s, error %q", v.Status, v.Error)
	}
	select {
	case <-bad.hub.wait(): // closed hub: SSE streams of the job end
	default:
		t.Error("panicking job's event hub left open")
	}
	if st := good.Status(); st != StatusDone {
		t.Errorf("job after the panic: status %s, want done", st)
	}
	if n := s.col.Counter("serve.jobs.failed").Value(); n != 1 {
		t.Errorf("serve.jobs.failed = %d, want 1", n)
	}
	if len(sink.recs) != 2 || sink.recs[0].Server.Status != string(StatusFailed) || sink.recs[0].Exit != 1 {
		t.Errorf("ledger records = %+v, want the failed job first with exit 1", sink.recs)
	}
	out := logs.String()
	// The logged stack is the pool worker's, down to the stub's frame.
	if !strings.Contains(out, "level=ERROR msg=\"job panicked\"") || !strings.Contains(out, "runner_test.go") {
		t.Errorf("panic not logged at error level with the worker's stack:\n%s", out)
	}
}

// TestFinishedJobsRetainLittleHeap guards the per-job cost of keeping
// finished jobs: each retains its flight recorder, which must cost what
// the job recorded rather than a preallocated full-capacity buffer.
func TestFinishedJobsRetainLittleHeap(t *testing.T) {
	s := New(Config{Runners: 2})
	defer s.Close()
	run := func(n int) {
		jobs := make([]*Job, n)
		for i := range jobs {
			j, err := s.Submit(Spec{Kind: KindFlow, Circuit: "s27"})
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		for _, j := range jobs {
			waitTerminal(t, j)
			if st := j.Status(); st != StatusDone {
				t.Fatalf("job %s: %s", j.ID(), st)
			}
		}
	}
	heapInuse := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	run(2) // warm the engine cache and the runners
	before := heapInuse()
	const jobs = 20
	run(jobs)
	after := heapInuse()
	if got := len(s.Jobs()); got != jobs+2 {
		t.Fatalf("server retains %d jobs, want %d", got, jobs+2)
	}
	if after > before {
		if per := (after - before) / jobs; per >= 512<<10 {
			t.Errorf("each finished job retains %d KiB of heap, want < 512 KiB", per>>10)
		}
	}
}

// slowLedger delays each append, widening the window between a job
// turning terminal and its ledger record landing.
type slowLedger struct{ n atomic.Int32 }

func (l *slowLedger) AppendRun(ledger.Record, int, time.Duration) error {
	time.Sleep(50 * time.Millisecond)
	l.n.Add(1)
	return nil
}

// TestSSEDoneFollowsBookkeeping: a client whose event stream ended on
// done finds the job counted and in the ledger.
func TestSSEDoneFollowsBookkeeping(t *testing.T) {
	sink := &slowLedger{}
	s := New(Config{Ledger: sink})
	h := httptest.NewServer(s.Handler())
	defer func() {
		h.Close()
		s.Close()
	}()
	j, err := s.Submit(Spec{Kind: KindScreen, Circuit: "s27"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(h.URL + "/api/v1/jobs/" + j.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(body), "event: done") {
		t.Fatalf("stream did not end on done (err %v)", err)
	}
	if n := sink.n.Load(); n != 1 {
		t.Errorf("ledger holds %d records when the stream ends, want 1", n)
	}
	if n := s.col.Counter("serve.jobs.done").Value(); n != 1 {
		t.Errorf("serve.jobs.done = %d when the stream ends, want 1", n)
	}
}
