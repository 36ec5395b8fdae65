package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/telemetry"
)

// cannedJobs is a stalled faultsim job mid-flight, a finished screen
// job, a canceled faultsim job and a queued one.
func cannedJobs() []serve.View {
	return []serve.View{
		{
			ID: "j000001", Kind: "faultsim", Circuit: "s3384", Status: serve.StatusRunning,
			TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
			Progress: &telemetry.Snapshot{
				Running: true, Stalled: true,
				FaultsTotal: 252, FaultsDone: 63, Detected: 20,
				WallNS: int64(40 * time.Second), IdleNS: int64(35 * time.Second),
			},
		},
		{
			ID: "j000002", Kind: "screen", Circuit: "s27", Status: serve.StatusDone,
			Progress: &telemetry.Snapshot{
				Finished:    true,
				FaultsTotal: 52, FaultsDone: 52, Detected: 21, Throughput: 63,
				WallNS: int64(time.Second),
			},
		},
		{
			ID: "j000003", Kind: "faultsim", Circuit: "s27", Status: serve.StatusCanceled, Error: "canceled",
			Progress: &telemetry.Snapshot{
				Finished:    true,
				FaultsTotal: 32, FaultsDone: 0,
				WallNS: int64(2 * time.Millisecond),
			},
		},
		{ID: "j000004", Kind: "screen", Circuit: "s27", Status: serve.StatusQueued},
	}
}

// cannedServer is a daemon with one queued job, one stall counted and
// the default 30 s stall threshold.
func cannedServer() serve.ServerView {
	return serve.ServerView{
		QueueDepth:       1,
		StallThresholdNS: (30 * time.Second).Nanoseconds(),
		Counters:         map[string]int64{"serve.jobs.stalls": 1},
	}
}

func TestRenderWatchFrame(t *testing.T) {
	var b strings.Builder
	renderWatch(&b, "localhost:8341", cannedJobs(), cannedServer(), false)
	out := b.String()
	for _, want := range []string{
		"4 jobs (1 running, 1 done)",
		"queue 1  stalls 1",
		"stall threshold 30s",
		"\nj000001 faultsim s3384 [running]  trace 4bf92f3577b34da6a3ce929d0e0e4736  [===         ] 63/252 (25.0%)  detected 20  STALLED idle 35s\n",
		"\nj000002 screen s27 [done]  [============] 52/52 (100.0%)  detected 21  63 f/s  done 1s\n",
		"\nj000003 faultsim s27 [canceled]  [            ] 0/32 (0.0%)  detected 0  after 2ms: canceled\n",
		"\nj000004 screen s27 [queued]\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("color escapes leaked into a colorless frame")
	}
}

func TestRenderWatchColorHighlightsStall(t *testing.T) {
	var b strings.Builder
	renderWatch(&b, "a", cannedJobs(), serve.ServerView{}, true)
	if !strings.Contains(b.String(), "\x1b[1;31mSTALLED") {
		t.Fatalf("stalled job not highlighted:\n%s", b.String())
	}
}

func TestRenderWatchEmpty(t *testing.T) {
	var b strings.Builder
	renderWatch(&b, "a", nil, serve.ServerView{}, false)
	if !strings.Contains(b.String(), "(no jobs)") {
		t.Fatalf("empty view frame = %q", b.String())
	}
}

func TestBar(t *testing.T) {
	for _, tc := range []struct {
		done, total int
		want        string
	}{
		{0, 10, "[          ]"},
		{5, 10, "[=====     ]"},
		{10, 10, "[==========]"},
		{20, 10, "[==========]"}, // clamped
		{3, 0, "[??????????]"},   // unknown span
	} {
		if got := bar(tc.done, tc.total, 10); got != tc.want {
			t.Errorf("bar(%d,%d) = %q, want %q", tc.done, tc.total, got, tc.want)
		}
	}
}

// TestFetchLive drives the HTTP client against a canned daemon that
// serves only the two JSON views: the dashboard must not scrape
// /metrics.
func TestFetchLive(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`[{"id":"j000001","kind":"screen","circuit":"s27","status":"done","progress":{"finished":true,"faults_total":52,"faults_done":52,"detected":32}}]`))
	})
	mux.HandleFunc("GET /api/v1/server", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"queue_depth":2,"stall_threshold_ns":30000000000,"counters":{"serve.jobs.stalls":3}}`))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("fetchLive requested %s beyond the two views", r.URL.Path)
		http.NotFound(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	jobs, sv, err := fetchLive(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Progress == nil || jobs[0].Progress.FaultsDone != 52 {
		t.Fatalf("fetchLive jobs = %+v", jobs)
	}
	if sv.QueueDepth != 2 || sv.StallThresholdNS != (30*time.Second).Nanoseconds() || sv.Counters["serve.jobs.stalls"] != 3 {
		t.Fatalf("fetchLive server view = %+v", sv)
	}
	var b strings.Builder
	renderWatch(&b, srv.URL, jobs, sv, false)
	for _, want := range []string{"52/52 (100.0%)", "queue 2  stalls 3  stall threshold 30s"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("rendered fetched frame missing %q:\n%s", want, b.String())
		}
	}

	// A daemon that is up but answers an error fails the fetch.
	bad := httptest.NewServer(http.NotFoundHandler())
	defer bad.Close()
	if _, _, err := fetchLive(bad.URL); err == nil || !strings.Contains(err.Error(), "status 404") {
		t.Fatalf("fetchLive against a 404 daemon = %v", err)
	}
}

// TestWatchRunningJobShowsPercentage: a running faultsim job announces
// its fault axis before it finishes, so its job view's progress carries
// faults_total and its watch row a completion percentage.
func TestWatchRunningJobShowsPercentage(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e daemon test")
	}
	s := serve.New(serve.Config{Runners: 1})
	h := httptest.NewServer(s.Handler())
	defer func() {
		h.Close()
		s.Close()
	}()
	j, err := s.Submit(task.Spec{Kind: task.KindFaultSim, Circuit: "s38584", Scale: 0.25, Cycles: 2000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(j.ID())

	deadline := time.Now().Add(60 * time.Second)
	for {
		jobs, sv, err := fetchLive(h.URL)
		if err != nil {
			t.Fatal(err)
		}
		lj := jobs[0]
		if p := lj.Progress; p != nil && p.Running && p.FaultsTotal > 0 {
			var b strings.Builder
			renderWatch(&b, h.URL, jobs, sv, false)
			row := fmt.Sprintf("%s faultsim s38584 [running]", j.ID())
			for _, line := range strings.Split(b.String(), "\n") {
				if strings.HasPrefix(line, row) {
					if !strings.Contains(line, fmt.Sprintf("/%d (", p.FaultsTotal)) || !strings.Contains(line, "%)") {
						t.Fatalf("running job row shows no percentage:\n%s", line)
					}
					return
				}
			}
			t.Fatalf("frame has no row for %s:\n%s", j.ID(), b.String())
		}
		if lj.Status.Terminal() {
			t.Fatalf("job ended %s without a running entry that knew its axis", lj.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("running job never reported its fault axis")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
