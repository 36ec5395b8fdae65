package serve_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/telemetry"
)

func liveView(t *testing.T, base string, query string) serve.LiveView {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/live" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/live: status %d", resp.StatusCode)
	}
	var v serve.LiveView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestLiveJob is the live-introspection acceptance e2e: a faultsim
// job whose /api/v1/live entry carries its progress and whose final
// figures equal the report's totals.
func TestLiveJob(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{Runners: 1})

	sp := task.Spec{Kind: task.KindFaultSim, Circuit: "s3384", Scale: 0.05, Cycles: 100}
	v := submit(t, h.URL, sp)

	// Poll the live view while the job runs: entries must appear, and a
	// mid-flight observation (when we catch one) must carry progress.
	// The job may finish before we observe it running — the terminal
	// assertions below are the deterministic gate.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		lv := liveView(t, h.URL, "")
		if len(lv.Jobs) != 1 || lv.Jobs[0].ID != v.ID {
			t.Fatalf("live view lists %+v, want job %s", lv.Jobs, v.ID)
		}
		if lv.StallThresholdNS != telemetry.DefaultStallThreshold.Nanoseconds() {
			t.Fatalf("stall threshold = %d, want default %d", lv.StallThresholdNS, telemetry.DefaultStallThreshold.Nanoseconds())
		}
		lj := lv.Jobs[0]
		if p := lj.Progress; lj.Status == serve.StatusRunning && p != nil && p.Running {
			if p.Finished || p.WallNS < 0 {
				t.Fatalf("mid-flight progress = %+v", p)
			}
			break
		}
		if lj.Status.Terminal() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	fin := waitTerminal(t, h.URL, v.ID, 30*time.Second)
	if fin.Status != serve.StatusDone {
		t.Fatalf("job finished %s (%s)", fin.Status, fin.Error)
	}
	out := result(t, h.URL, v.ID)

	// Terminal live view: the exact figures equal the report totals.
	lv := liveView(t, h.URL, "")
	lj := lv.Jobs[0]
	if lj.Progress == nil {
		t.Fatal("terminal live entry has no progress snapshot")
	}
	p := lj.Progress
	if !p.Finished || p.Running || p.Stalled || lj.Error != "" {
		t.Fatalf("terminal lifecycle = %+v (error %q)", p, lj.Error)
	}
	var detected, faults int
	if _, err := fmt.Sscanf(out[strings.Index(out, "detected"):], "detected %d / %d", &detected, &faults); err != nil {
		t.Fatalf("unparseable report %q: %v", out, err)
	}
	if p.FaultsTotal != faults || p.FaultsDone != faults {
		t.Fatalf("live faults total/done = %d/%d, want %d/%d (report)", p.FaultsTotal, p.FaultsDone, faults, faults)
	}
	if p.Detected != detected {
		t.Fatalf("live detected = %d, want %d (report)", p.Detected, detected)
	}
	if p.WallNS <= 0 || p.IdleNS != 0 {
		t.Fatalf("terminal wall/idle = %d/%d", p.WallNS, p.IdleNS)
	}
	if p.JobID != v.ID || p.Kind != sp.Kind || p.Circuit != sp.Circuit {
		t.Fatalf("snapshot identity = %s/%s/%s, want %s/%s/%s", p.JobID, p.Kind, p.Circuit, v.ID, sp.Kind, sp.Circuit)
	}

	// ?running=1 drops terminal jobs.
	if lv := liveView(t, h.URL, "?running=1"); len(lv.Jobs) != 0 {
		t.Fatalf("running-only live view lists terminal jobs: %+v", lv.Jobs)
	}

	// The scrape surface counts the stalled jobs and the stalls.
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{
		"fsct_serve_jobs_stalled_total 0",
		"fsct_journal_dropped_events_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "fsct_serve_units_") {
		t.Errorf("/metrics still carries unit gauges:\n%s", body)
	}
}

// TestLiveCanceledJobPartial: a faultsim job canceled after its first
// batches keeps a partial live figure — its faults_done stays below
// faults_total — instead of reading as fully covered.
func TestLiveCanceledJobPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e server test")
	}
	_, h, _ := testServer(t, serve.Config{Runners: 1})
	v := submit(t, h.URL, task.Spec{Kind: task.KindFaultSim, Circuit: "s38584", Scale: 0.25, Cycles: 2000, Workers: 2})

	// Wait for the first batches, then cancel.
	deadline := time.Now().Add(60 * time.Second)
	for {
		lj := liveView(t, h.URL, "").Jobs[0]
		if p := lj.Progress; p != nil && p.Running && p.FaultsDone > 0 {
			break
		}
		if lj.Status.Terminal() {
			t.Fatalf("job ended %s before it was canceled", lj.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reported a batch")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(h.URL+"/api/v1/jobs/"+v.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin := waitTerminal(t, h.URL, v.ID, 60*time.Second); fin.Status != serve.StatusCanceled {
		t.Fatalf("status after cancel = %s, want canceled", fin.Status)
	}

	lj := liveView(t, h.URL, "").Jobs[0]
	p := lj.Progress
	if p == nil || !p.Finished {
		t.Fatalf("terminal live entry = %+v", lj)
	}
	if p.FaultsTotal <= 0 || p.FaultsDone <= 0 || p.FaultsDone >= p.FaultsTotal {
		t.Fatalf("canceled job reads faults_done %d of faults_total %d, want a partial figure", p.FaultsDone, p.FaultsTotal)
	}
	if p.Throughput != 0 {
		t.Errorf("canceled job has throughput %v, want 0", p.Throughput)
	}
	if lj.Error != "canceled" {
		t.Errorf("live entry error = %q, want canceled", lj.Error)
	}
}

// TestLiveStallFlagged drives the server's watchdog with a hand-fed
// tracker: a run that stops emitting must be flagged within one stall
// threshold and counted on /metrics.
func TestLiveStallFlagged(t *testing.T) {
	s, h, _ := testServer(t, serve.Config{Runners: 1, StallThreshold: 5 * time.Millisecond})

	tr := telemetry.NewRunTracker(telemetry.Info{RunID: "stall-test", JobID: "jx"}, nil)
	wd := s.Watchdog()
	if wd.Threshold() != 5*time.Millisecond {
		t.Fatalf("threshold = %v, want 5ms", wd.Threshold())
	}
	wd.Register(tr)
	defer wd.Unregister(tr)
	tr.Observe(journal.UnitBegin())

	// The watchdog goroutine sweeps at threshold/4; the flag must land
	// within a few thresholds of the last heartbeat.
	deadline := time.Now().Add(2 * time.Second)
	for !tr.Snapshot().Stalled {
		if time.Now().After(deadline) {
			t.Fatal("stalled run never flagged by the server watchdog")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if !strings.Contains(body, "fsct_serve_jobs_stalls_total") {
		t.Fatalf("/metrics missing stall counter:\n%s", body)
	}
}

// TestLiveEventsStream reads one frame of the live SSE variant.
func TestLiveEventsStream(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{Runners: 1})
	submit(t, h.URL, task.Spec{Kind: task.KindScreen, Circuit: "s27"})

	resp, err := http.Get(h.URL + "/api/v1/live/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if event != "live" {
		t.Fatalf("first SSE event = %q, want live", event)
	}
	var lv serve.LiveView
	if err := json.Unmarshal([]byte(data), &lv); err != nil {
		t.Fatalf("unparseable live frame %q: %v", data, err)
	}
	if len(lv.Jobs) != 1 {
		t.Fatalf("live frame lists %d jobs, want 1", len(lv.Jobs))
	}
}
