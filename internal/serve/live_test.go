package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/telemetry"
)

func serverView(t *testing.T, base string) serve.ServerView {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/server")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v serve.ServerView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// reportTotals parses a faultsim report's "detected D / F" line.
func reportTotals(t *testing.T, out string) (detected, faults int) {
	t.Helper()
	i := strings.Index(out, "detected")
	if i < 0 {
		t.Fatalf("report has no detected line: %q", out)
	}
	if _, err := fmt.Sscanf(out[i:], "detected %d / %d", &detected, &faults); err != nil {
		t.Fatalf("unparseable report %q: %v", out, err)
	}
	return detected, faults
}

// TestLiveJob is the live-introspection acceptance e2e: a faultsim
// job's view carries its progress while it runs and a finished
// lifecycle once it is done, and the server view the stall threshold.
func TestLiveJob(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{Runners: 1})

	sp := task.Spec{Kind: task.KindFaultSim, Circuit: "s3384", Scale: 0.05, Cycles: 100}
	v := submit(t, h.URL, sp)

	if got := serverView(t, h.URL).StallThresholdNS; got != telemetry.DefaultStallThreshold.Nanoseconds() {
		t.Fatalf("stall threshold = %d, want default %d", got, telemetry.DefaultStallThreshold.Nanoseconds())
	}

	// Poll the job view while the job runs: a mid-flight observation
	// (when we catch one) must carry progress. The job may finish
	// before we observe it running — the terminal assertions below are
	// the deterministic gate.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		jv := jobView(t, h.URL, v.ID)
		if p := jv.Progress; jv.Status == serve.StatusRunning && p != nil && p.Running {
			if p.Finished || p.WallNS < 0 {
				t.Fatalf("mid-flight progress = %+v", p)
			}
			break
		}
		if jv.Status.Terminal() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	fin := waitTerminal(t, h.URL, v.ID, 30*time.Second)
	if fin.Status != serve.StatusDone {
		t.Fatalf("job finished %s (%s)", fin.Status, fin.Error)
	}
	p := fin.Progress
	if p == nil {
		t.Fatal("terminal job view has no progress snapshot")
	}
	if !p.Finished || p.Running || p.Stalled || fin.Error != "" {
		t.Fatalf("terminal lifecycle = %+v (error %q)", p, fin.Error)
	}
	if p.WallNS <= 0 || p.IdleNS != 0 {
		t.Fatalf("terminal wall/idle = %d/%d", p.WallNS, p.IdleNS)
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

// TestJobViewProgress: the job view is the one place a job's progress
// is read. A finished faultsim job's progress, on both job endpoints,
// equals the report's totals, and the former live endpoints are gone.
func TestJobViewProgress(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{Runners: 1})
	v := submit(t, h.URL, task.Spec{Kind: task.KindFaultSim, Circuit: "s27", Cycles: 200})
	if fin := waitTerminal(t, h.URL, v.ID, 30*time.Second); fin.Status != serve.StatusDone {
		t.Fatalf("job finished %s (%s)", fin.Status, fin.Error)
	}
	detected, faults := reportTotals(t, result(t, h.URL, v.ID))

	resp, err := http.Get(h.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []serve.View
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list) != 1 {
		t.Fatalf("job list = %+v (%v), want one job", list, err)
	}
	for _, jv := range []serve.View{jobView(t, h.URL, v.ID), list[0]} {
		p := jv.Progress
		if p == nil {
			t.Fatalf("job view of %s has no progress", jv.ID)
		}
		if p.FaultsTotal != faults || p.FaultsDone != faults || p.Detected != detected {
			t.Fatalf("progress faults total/done/detected = %d/%d/%d, want %d/%d/%d (report)",
				p.FaultsTotal, p.FaultsDone, p.Detected, faults, faults, detected)
		}
	}

	for _, path := range []string{"/api/v1/live", "/api/v1/live?running=1", "/api/v1/live/events"} {
		resp, err := http.Get(h.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestLiveCanceledJobPartial: a faultsim job canceled after its first
// batches keeps a partial figure in its view — its faults_done stays
// below faults_total — instead of reading as fully covered.
func TestLiveCanceledJobPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e server test")
	}
	_, h, _ := testServer(t, serve.Config{Runners: 1})
	v := submit(t, h.URL, task.Spec{Kind: task.KindFaultSim, Circuit: "s38584", Scale: 0.25, Cycles: 2000, Workers: 2})

	// Wait for the first batches, then cancel.
	deadline := time.Now().Add(60 * time.Second)
	for {
		jv := jobView(t, h.URL, v.ID)
		if p := jv.Progress; p != nil && p.Running && p.FaultsDone > 0 {
			break
		}
		if jv.Status.Terminal() {
			t.Fatalf("job ended %s before it was canceled", jv.Status)
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
	fin := waitTerminal(t, h.URL, v.ID, 60*time.Second)
	if fin.Status != serve.StatusCanceled {
		t.Fatalf("status after cancel = %s, want canceled", fin.Status)
	}

	p := fin.Progress
	if p == nil || !p.Finished {
		t.Fatalf("terminal job view = %+v", fin)
	}
	if p.FaultsTotal <= 0 || p.FaultsDone <= 0 || p.FaultsDone >= p.FaultsTotal {
		t.Fatalf("canceled job reads faults_done %d of faults_total %d, want a partial figure", p.FaultsDone, p.FaultsTotal)
	}
	if p.Throughput != 0 {
		t.Errorf("canceled job has throughput %v, want 0", p.Throughput)
	}
	if fin.Error != "canceled" {
		t.Errorf("job view error = %q, want canceled", fin.Error)
	}
}
