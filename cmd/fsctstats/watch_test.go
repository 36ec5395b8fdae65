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

// cannedLive is a stalled faultsim job mid-flight, a finished screen
// job, a canceled faultsim job and a queued one.
func cannedLive() serve.LiveView {
	return serve.LiveView{
		StallThresholdNS: (30 * time.Second).Nanoseconds(),
		Jobs: []serve.LiveJob{
			{
				ID: "j000001", Kind: "faultsim", Circuit: "s3384", Status: serve.StatusRunning,
				TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
				Progress: &telemetry.Snapshot{
					RunID: "r", JobID: "j000001", Kind: "faultsim", Circuit: "s3384",
					Running: true, Stalled: true,
					FaultsTotal: 252, FaultsDone: 63, Detected: 20,
					WallNS: int64(40 * time.Second), IdleNS: int64(35 * time.Second),
				},
			},
			{
				ID: "j000002", Kind: "screen", Circuit: "s27", Status: serve.StatusDone,
				Progress: &telemetry.Snapshot{
					RunID: "r", JobID: "j000002", Kind: "screen", Circuit: "s27",
					Finished:    true,
					FaultsTotal: 52, FaultsDone: 52, Detected: 21, Throughput: 63,
					WallNS: int64(time.Second),
				},
			},
			{
				ID: "j000003", Kind: "faultsim", Circuit: "s27", Status: serve.StatusCanceled, Error: "canceled",
				Progress: &telemetry.Snapshot{
					RunID: "r", JobID: "j000003", Kind: "faultsim", Circuit: "s27",
					Finished:    true,
					FaultsTotal: 32, FaultsDone: 0,
					WallNS: int64(2 * time.Millisecond),
				},
			},
			{ID: "j000004", Kind: "screen", Circuit: "s27", Status: serve.StatusQueued},
		},
	}
}

func TestRenderWatchFrame(t *testing.T) {
	var b strings.Builder
	counters := map[string]float64{
		"fsct_serve_queue_depth_total": 1,
		"fsct_serve_jobs_stalls_total": 1,
	}
	renderWatch(&b, "localhost:8341", cannedLive(), counters, false)
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
	renderWatch(&b, "a", cannedLive(), nil, true)
	if !strings.Contains(b.String(), "\x1b[1;31mSTALLED") {
		t.Fatalf("stalled job not highlighted:\n%s", b.String())
	}
}

func TestRenderWatchEmpty(t *testing.T) {
	var b strings.Builder
	renderWatch(&b, "a", serve.LiveView{}, nil, false)
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

func TestParseCounters(t *testing.T) {
	text := "# TYPE fsct_x counter\n" +
		"fsct_x_total 42\n" +
		"fsct_pool_utilization{pool=\"faultsim\"} 0.9\n" + // labelled: skipped
		"fsct_run_wall_seconds 1.5\n" +
		"garbage line without value\n" +
		"# EOF\n"
	got := parseCounters(text)
	if got["fsct_x_total"] != 42 || got["fsct_run_wall_seconds"] != 1.5 {
		t.Fatalf("parseCounters = %v", got)
	}
	if _, ok := got[`fsct_pool_utilization{pool="faultsim"}`]; ok {
		t.Fatal("labelled sample not skipped")
	}
	if len(got) != 2 {
		t.Fatalf("parseCounters kept %d samples, want 2: %v", len(got), got)
	}
}

// TestFetchLive drives the HTTP client against a canned daemon.
func TestFetchLive(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/live", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"stall_threshold_ns":30000000000,"jobs":[{"id":"j000001","kind":"screen","circuit":"s27","status":"done","progress":{"finished":true,"faults_total":52,"faults_done":52,"detected":32}}]}`))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("fsct_serve_queue_depth_total 0\n# EOF\n"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	lv, counters, err := fetchLive(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(lv.Jobs) != 1 || lv.Jobs[0].Progress == nil || lv.Jobs[0].Progress.FaultsDone != 52 {
		t.Fatalf("fetchLive view = %+v", lv)
	}
	if counters["fsct_serve_queue_depth_total"] != 0 {
		t.Fatalf("fetchLive counters = %v", counters)
	}
	var b strings.Builder
	renderWatch(&b, srv.URL, lv, counters, false)
	if !strings.Contains(b.String(), "52/52 (100.0%)") {
		t.Fatalf("rendered fetched frame missing totals:\n%s", b.String())
	}
}

// TestWatchRunningJobShowsPercentage: a running faultsim job announces
// its fault axis before it finishes, so its live entry carries
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
		lv, counters, err := fetchLive(h.URL)
		if err != nil {
			t.Fatal(err)
		}
		lj := lv.Jobs[0]
		if p := lj.Progress; p != nil && p.Running && p.FaultsTotal > 0 {
			var b strings.Builder
			renderWatch(&b, h.URL, lv, counters, false)
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
