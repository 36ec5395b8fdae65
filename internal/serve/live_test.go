package serve_test

import (
	"bufio"
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

// taskUnit builds a detached unit for hand-feeding the watchdog tests.
func taskUnit(index, count int) task.Unit {
	return task.Unit{
		Spec:  task.Spec{Kind: task.KindFaultSim, Circuit: "s27"},
		Index: index, Count: count, Lo: index * 63, Hi: (index + 1) * 63,
	}
}

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

// TestLiveMultiUnitJob is the live-introspection acceptance e2e: a
// multi-unit faultsim job whose /api/v1/live entry carries per-unit
// progress, whose final unit sums equal the report's totals, and whose
// report is byte-identical to the single-unit run of the same spec.
func TestLiveMultiUnitJob(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{Runners: 1})

	sp := task.Spec{Kind: task.KindFaultSim, Circuit: "s3384", Scale: 0.05, Cycles: 100, Units: 3}
	v := submit(t, h.URL, sp)

	// Poll the live view while the job runs: entries must appear, and a
	// mid-flight observation (when we catch one) must carry unit-level
	// progress. The job may finish before we observe it running — the
	// terminal assertions below are the deterministic gate.
	sawRunning := false
	deadline := time.Now().Add(30 * time.Second)
	for !sawRunning && time.Now().Before(deadline) {
		lv := liveView(t, h.URL, "")
		if len(lv.Jobs) != 1 || lv.Jobs[0].ID != v.ID {
			t.Fatalf("live view lists %+v, want job %s", lv.Jobs, v.ID)
		}
		if lv.StallThresholdNS != telemetry.DefaultStallThreshold.Nanoseconds() {
			t.Fatalf("stall threshold = %d, want default %d", lv.StallThresholdNS, telemetry.DefaultStallThreshold.Nanoseconds())
		}
		lj := lv.Jobs[0]
		if lj.Status == serve.StatusRunning && lj.Progress != nil && len(lj.Progress.Units) > 0 {
			sawRunning = true
			if lj.Progress.UnitsTotal != 3 {
				t.Fatalf("mid-flight units_total = %d, want 3", lj.Progress.UnitsTotal)
			}
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

	// Terminal live view: exact per-unit sums equal the report totals.
	lv := liveView(t, h.URL, "")
	lj := lv.Jobs[0]
	if lj.Progress == nil {
		t.Fatal("terminal live entry has no progress snapshot")
	}
	p := lj.Progress
	if p.UnitsTotal != 3 || p.UnitsDone != 3 || p.UnitsRunning != 0 || p.UnitsStalled != 0 {
		t.Fatalf("terminal unit partition = %+v", p)
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
	var sumDone, sumDet int
	for _, u := range p.Units {
		if !u.Finished || u.Faults != u.Hi-u.Lo || u.Done != u.Faults {
			t.Fatalf("terminal unit %+v not fully accounted", u)
		}
		sumDone += u.Done
		sumDet += u.Detected
	}
	if sumDone != faults || sumDet != detected {
		t.Fatalf("per-unit sums %d/%d, want %d/%d", sumDone, sumDet, faults, detected)
	}
	if p.JobID != v.ID || p.Kind != sp.Kind || p.Circuit != sp.Circuit {
		t.Fatalf("snapshot identity = %s/%s/%s, want %s/%s/%s", p.JobID, p.Kind, p.Circuit, v.ID, sp.Kind, sp.Circuit)
	}

	// Byte-identity across unit counts: the same spec at Units=1 (the
	// default path) serves the same bytes.
	single := sp
	single.Units = 0
	v1 := submit(t, h.URL, single)
	if fin := waitTerminal(t, h.URL, v1.ID, 30*time.Second); fin.Status != serve.StatusDone {
		t.Fatalf("single-unit job finished %s (%s)", fin.Status, fin.Error)
	}
	if out1 := result(t, h.URL, v1.ID); out1 != out {
		t.Fatalf("multi-unit report differs from single-unit report:\n--- units=3\n%s--- units=1\n%s", out, out1)
	}

	// ?running=1 drops terminal jobs.
	if lv := liveView(t, h.URL, "?running=1"); len(lv.Jobs) != 0 {
		t.Fatalf("running-only live view lists terminal jobs: %+v", lv.Jobs)
	}

	// The scrape surface aggregates the unit gauges.
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{
		"fsct_serve_units_total_total 4", // 3 + 1 single-unit
		"fsct_serve_units_done_total 4",
		"fsct_serve_units_stalled_total 0",
		"fsct_journal_dropped_events_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestLiveStallFlagged drives the server's watchdog with a hand-fed
// tracker: a unit that stops emitting must be flagged within one stall
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
	tr.UnitStarted(taskUnit(0, 2))

	// The watchdog goroutine sweeps at threshold/4; the flag must land
	// within a few thresholds of the last heartbeat.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if snap := tr.Snapshot(); snap.UnitsStalled == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled unit never flagged by the server watchdog")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if !strings.Contains(body, "fsct_serve_units_stalls_total") {
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
