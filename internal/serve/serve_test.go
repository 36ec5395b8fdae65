package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/diagnose"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/serve"
	"repro/internal/task"
)

// memSink collects the per-job ledger records a server appends.
type memSink struct {
	mu   sync.Mutex
	recs []ledger.Record
}

func (m *memSink) AppendRun(rec ledger.Record, exit int, wall time.Duration) error {
	rec.Exit = exit
	rec.WallNS = wall.Nanoseconds()
	m.mu.Lock()
	m.recs = append(m.recs, rec)
	m.mu.Unlock()
	return nil
}

func (m *memSink) records() []ledger.Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]ledger.Record(nil), m.recs...)
}

// testServer pairs a serve.Server with an httptest front end.
func testServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server, *memSink) {
	t.Helper()
	sink := &memSink{}
	cfg.Ledger = sink
	s := serve.New(cfg)
	h := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		h.Close()
		s.Close()
	})
	return s, h, sink
}

func submit(t *testing.T, base string, sp task.Spec) serve.View {
	t.Helper()
	body, _ := json.Marshal(sp)
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit %+v: status %d (%v)", sp, resp.StatusCode, e)
	}
	var v serve.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func jobView(t *testing.T, base, id string) serve.View {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v serve.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t *testing.T, base, id string, timeout time.Duration) serve.View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := jobView(t, base, id)
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.Status, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func result(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d: %s", id, resp.StatusCode, b.String())
	}
	return b.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// scrubDurations blanks the bracketed wall-time tokens of a flow
// report ("[49µs]") — the only nondeterministic bytes in any report
// (the core determinism tests likewise zero the CPU fields before
// comparing). Everything else must match byte for byte.
var durToken = regexp.MustCompile(`\[[^\[\]]*s\]`)

func scrubDurations(s string) string {
	return durToken.ReplaceAllString(s, "[x]")
}

// buildCircuit mirrors the daemon's circuit materialization for the
// byte-identical comparisons.
func buildCircuit(t *testing.T, name string, scale float64, seed int64) *fsct.Circuit {
	t.Helper()
	if name == "s27" {
		return fsct.S27()
	}
	p, err := fsct.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if scale > 0 && scale < 1 {
		p = p.Scale(scale)
	}
	return fsct.GenerateCircuit(p, seed)
}

func insertScan(t *testing.T, c *fsct.Circuit, chains int, seed int64) *fsct.Design {
	t.Helper()
	if chains == 0 {
		chains = fsct.DefaultChains(len(c.FFs))
	}
	d, err := fsct.InsertScan(c, fsct.ScanOptions{NumChains: chains, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// expectedOutput computes, through direct facade calls, the exact text
// the daemon must serve for a spec.
func expectedOutput(t *testing.T, sp task.Spec) string {
	t.Helper()
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Cycles == 0 {
		sp.Cycles = 500
	}
	c := buildCircuit(t, sp.Circuit, sp.Scale, sp.Seed)
	switch sp.Kind {
	case task.KindFlow:
		d := insertScan(t, c, sp.Chains, sp.Seed)
		rep, err := fsct.RunFlowCtx(context.Background(), d, fsct.FlowParams{Workers: sp.Workers})
		if err != nil {
			t.Fatal(err)
		}
		return fsct.FormatReport(rep)
	case task.KindScreen:
		d := insertScan(t, c, sp.Chains, sp.Seed)
		screened, err := fsct.ScreenFaultsCtx(context.Background(), d, fsct.CollapsedFaults(d.C), fsct.ScreenOptions{Workers: sp.Workers})
		if err != nil {
			t.Fatal(err)
		}
		return task.FormatScreen(d.C.Name, screened)
	case task.KindFaultSim:
		faults := fsct.CollapsedFaults(c)
		seq := task.RandomSequence(c, sp.Seed, sp.Cycles)
		st := c.Stat()
		res, err := fsct.SimulateFaultsCtx(context.Background(), c, seq, faults, fsct.SimOptions{Workers: sp.Workers})
		if err != nil {
			t.Fatal(err)
		}
		det := res.NumDetected()
		return fmt.Sprintf("circuit %s: %d gates, %d FFs; %d faults; %d cycles\n", c.Name, st.Gates, st.FFs, len(faults), len(seq)) +
			fmt.Sprintf("detected %d / %d faults (%.2f%% coverage)\n", det, len(faults), 100*float64(det)/float64(len(faults)))
	case task.KindATPG:
		d := insertScan(t, c, sp.Chains, sp.Seed)
		arts := engine.New().For(d.C)
		fixed := make(map[fsct.SignalID]fsct.Value, len(d.Assignments))
		for k, v := range d.Assignments {
			fixed[k] = v
		}
		model, tables, err := arts.CombSearch(fixed)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := arts.CombModel()
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.Collapsed(cm.C)
		eng := atpg.NewEngineTables(model, tables)
		found, redundant, aborted := 0, 0, 0
		for _, f := range faults {
			res, _ := eng.GenerateCtx(context.Background(), f, 250)
			switch res.Status {
			case atpg.Found:
				found++
			case atpg.Redundant:
				redundant++
			default:
				aborted++
			}
		}
		return fmt.Sprintf("circuit %s: comb ATPG over %d faults\n", d.C.Name, len(faults)) +
			fmt.Sprintf("found %d  redundant %d  aborted %d\n", found, redundant, aborted)
	case task.KindDiagnose:
		d := insertScan(t, c, sp.Chains, sp.Seed)
		screened, err := fsct.ScreenFaultsCtx(context.Background(), d, fsct.CollapsedFaults(d.C), fsct.ScreenOptions{Workers: sp.Workers})
		if err != nil {
			t.Fatal(err)
		}
		var affecting []fault.Fault
		for _, sc := range screened {
			if sc.Cat != fsct.CatUnaffecting {
				affecting = append(affecting, sc.Fault)
			}
		}
		dict, err := fsct.BuildDictionaryCtx(context.Background(), d, affecting, uint64(sp.Seed), sp.Workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		exact, ambiguous, silent, totalMatches := 0, 0, 0, 0
		for i := range affecting {
			hidden := affecting[i]
			sig := dict.Observe(&diagnose.SimulatedDevice{C: d.C, Hidden: &hidden})
			if sig == dict.GoodSignature() {
				silent++
				continue
			}
			m := dict.Match(sig)
			totalMatches += len(m)
			if len(m) == 1 {
				exact++
			} else {
				ambiguous++
			}
		}
		diagnosable := exact + ambiguous
		out := fmt.Sprintf("circuit %s: dictionary over %d chain-affecting faults\n", d.C.Name, len(affecting)) +
			fmt.Sprintf("diagnosable: %d (%.1f%%)  exact: %d  ambiguous: %d  silent: %d\n",
				diagnosable, 100*float64(diagnosable)/float64(len(affecting)), exact, ambiguous, silent)
		if diagnosable > 0 {
			out += fmt.Sprintf("mean candidates per diagnosis: %.2f\n", float64(totalMatches)/float64(diagnosable))
		}
		return out
	}
	t.Fatalf("unexpected kind %q", sp.Kind)
	return ""
}

// TestConcurrentJobsByteIdentical is the acceptance e2e: one server,
// eight concurrent jobs across two distinct circuits and all five
// kinds, every report byte-identical to the direct facade computation.
func TestConcurrentJobsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e server test")
	}
	specs := []task.Spec{
		{Kind: task.KindFlow, Circuit: "s27"},
		{Kind: task.KindFlow, Circuit: "s1423", Scale: 0.05},
		{Kind: task.KindScreen, Circuit: "s27"},
		{Kind: task.KindScreen, Circuit: "s1423", Scale: 0.05},
		{Kind: task.KindFaultSim, Circuit: "s27", Cycles: 300},
		{Kind: task.KindFaultSim, Circuit: "s1423", Scale: 0.05, Cycles: 300},
		{Kind: task.KindDiagnose, Circuit: "s27"},
		{Kind: task.KindATPG, Circuit: "s27"},
	}
	_, h, sink := testServer(t, serve.Config{Runners: 4})

	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i] = submit(t, h.URL, sp).ID
	}
	for i, id := range ids {
		v := waitTerminal(t, h.URL, id, 120*time.Second)
		if v.Status != serve.StatusDone {
			t.Fatalf("job %s (%+v): status %s (%s)", id, specs[i], v.Status, v.Error)
		}
	}
	for i, id := range ids {
		want := scrubDurations(expectedOutput(t, specs[i]))
		got := scrubDurations(result(t, h.URL, id))
		if got != want {
			t.Errorf("job %s (%+v) output diverges from facade:\n--- daemon ---\n%s--- facade ---\n%s", id, specs[i], got, want)
		}
	}
	// Every job left a ledger record with server metadata.
	recs := sink.records()
	if len(recs) != len(specs) {
		t.Fatalf("ledger has %d records, want %d", len(recs), len(specs))
	}
	for _, rec := range recs {
		if rec.Server == nil || rec.Server.JobID == "" || rec.Server.Status != string(serve.StatusDone) {
			t.Errorf("record missing server meta: %+v", rec.Server)
		}
	}
}

// TestCancelMidFlight cancels a long fault-simulation while it runs:
// the job ends canceled, its SSE stream terminates with the done
// event, and the ledger records the partial run.
func TestCancelMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e server test")
	}
	// Full s9234 has ~100 fault batches: the run takes seconds in total
	// but cancellation (checked at batch boundaries) lands fast.
	_, h, sink := testServer(t, serve.Config{Runners: 1})
	v := submit(t, h.URL, task.Spec{Kind: task.KindFaultSim, Circuit: "s9234", Cycles: 3000, Workers: 2})

	// Attach an SSE reader before the cancel so we observe the close.
	sseDone := make(chan string, 1)
	go func() {
		resp, err := http.Get(h.URL + "/api/v1/jobs/" + v.ID + "/events")
		if err != nil {
			sseDone <- "get: " + err.Error()
			return
		}
		defer resp.Body.Close()
		last := ""
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				last = strings.TrimPrefix(line, "event: ")
			}
		}
		sseDone <- last
	}()

	// Wait until it actually runs, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for jobView(t, h.URL, v.ID).Status != serve.StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Post(h.URL+"/api/v1/jobs/"+v.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	fin := waitTerminal(t, h.URL, v.ID, 60*time.Second)
	if fin.Status != serve.StatusCanceled {
		t.Fatalf("status after cancel = %s, want canceled", fin.Status)
	}
	select {
	case last := <-sseDone:
		if last != "done" {
			t.Errorf("SSE stream ended on event %q, want done", last)
		}
	case <-time.After(30 * time.Second):
		t.Error("SSE stream did not close after cancellation")
	}
	recs := sink.records()
	if len(recs) != 1 {
		t.Fatalf("ledger has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Server == nil || rec.Server.Status != string(serve.StatusCanceled) {
		t.Fatalf("partial run not recorded as canceled: %+v", rec.Server)
	}
	if rec.Exit == 0 {
		t.Error("canceled record has exit 0")
	}
}

// TestAdmissionControl fills the queue behind a slow job and expects
// 429 on the next submission.
func TestAdmissionControl(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{Runners: 1, QueueLimit: 1})
	blocker := submit(t, h.URL, task.Spec{Kind: task.KindFaultSim, Circuit: "s9234", Cycles: 3000, Workers: 1})
	// Wait for the blocker to leave the queue.
	deadline := time.Now().Add(30 * time.Second)
	for jobView(t, h.URL, blocker.ID).Status == serve.StatusQueued {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	submit(t, h.URL, task.Spec{Kind: task.KindScreen, Circuit: "s27"}) // fills the queue

	body, _ := json.Marshal(task.Spec{Kind: task.KindScreen, Circuit: "s27"})
	resp, err := http.Post(h.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: status %d, want 429", resp.StatusCode)
	}
	// Cancel the blocker so cleanup is quick.
	r2, err := http.Post(h.URL+"/api/v1/jobs/"+blocker.ID+"/cancel", "application/json", nil)
	if err == nil {
		r2.Body.Close()
	}
}

// TestMetricsAndServerEndpoints scrapes /metrics and /api/v1/server
// after a job and checks the serve.* samples are present.
func TestMetricsAndServerEndpoints(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{})
	v := submit(t, h.URL, task.Spec{Kind: task.KindScreen, Circuit: "s27"})
	waitTerminal(t, h.URL, v.ID, 60*time.Second)

	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics") {
		t.Errorf("metrics content type = %q", ct)
	}
	for _, want := range []string{"serve_jobs_submitted", "serve_jobs_done", "serve_cache_entries"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s:\n%s", want, text)
		}
	}

	resp, err = http.Get(h.URL + "/api/v1/server")
	if err != nil {
		t.Fatal(err)
	}
	var sv struct {
		Jobs  map[string]int `json:"jobs"`
		Cache struct {
			Entries int `json:"entries"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sv.Jobs["done"] != 1 {
		t.Errorf("server view jobs = %v, want one done", sv.Jobs)
	}
	if sv.Cache.Entries == 0 {
		t.Error("server view reports an empty cache after a screen job")
	}
}

// TestSSEStreamsEvents runs a small job to completion and expects its
// SSE stream to carry journal events and end with done.
func TestSSEStreamsEvents(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{})
	v := submit(t, h.URL, task.Spec{Kind: task.KindScreen, Circuit: "s27"})
	resp, err := http.Get(h.URL + "/api/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events, last := 0, ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events++
			last = strings.TrimPrefix(line, "event: ")
		}
	}
	if last != "done" {
		t.Errorf("stream ended on %q, want done", last)
	}
	if events < 2 {
		t.Errorf("stream carried %d events, want phase/batch traffic plus done", events)
	}
}

// TestSSEKindsFilter: the ?kinds= filter SERVICE.md documents keeps
// exactly the named journal kinds, and the stream still ends on done.
func TestSSEKindsFilter(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{})
	v := submit(t, h.URL, task.Spec{Kind: task.KindFlow, Circuit: "s27"})
	resp, err := http.Get(h.URL + "/api/v1/jobs/" + v.ID + "/events?kinds=phase_begin,phase_end,cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		if k, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 || kinds[len(kinds)-1] != "done" {
		t.Fatalf("stream %v does not end on done", kinds)
	}
	seen := map[string]bool{}
	for _, k := range kinds[:len(kinds)-1] {
		switch k {
		case "phase_begin", "phase_end", "cache":
			seen[k] = true
		default:
			t.Errorf("filtered stream carried a %q event", k)
		}
	}
	if !seen["phase_begin"] || !seen["phase_end"] {
		t.Errorf("filtered stream carried %v, want phase_begin and phase_end events", kinds)
	}
}

// TestValidation exercises the 400 paths.
func TestValidation(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{})
	for _, sp := range []task.Spec{
		{},
		{Kind: "nope", Circuit: "s27"},
		{Kind: task.KindFlow},
		{Kind: task.KindFlow, Circuit: "not-a-profile"},
		{Kind: task.KindFlow, Circuit: "s27", Workers: task.DefaultsFor(task.KindFlow).MaxWorkers + 1},
		{Kind: task.KindFaultSim, Circuit: "s27", Cycles: task.DefaultsFor(task.KindFaultSim).MaxCycles + 1},
		{Kind: task.KindFaultSim, Circuit: "s27", Cycles: 2000000000},
		// Inside the body cap, past the inline netlist limit.
		{Kind: task.KindScreen, Circuit: "big", Bench: strings.Repeat("#", task.DefaultsFor(task.KindScreen).MaxBenchBytes+1)},
	} {
		body, _ := json.Marshal(sp)
		resp, err := http.Post(h.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d, want 400", sp, resp.StatusCode)
		}
	}
	// Removed spec fields are unknown fields: job sharding (units) is
	// gone, the hybrid budget (cone_threshold) is derived from the
	// circuit, the evaluator (eval) is engine.Auto's choice, and the
	// queue is FIFO (priority).
	for field, body := range map[string]string{
		"units":          `{"kind":"faultsim","circuit":"s27","units":3}`,
		"cone_threshold": `{"kind":"faultsim","circuit":"s27","cone_threshold":8}`,
		"eval":           `{"kind":"faultsim","circuit":"s27","eval":"auto"}`,
		"priority":       `{"kind":"faultsim","circuit":"s27","priority":3}`,
	} {
		resp, err := http.Post(h.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		e := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e, `unknown field \"`+field+`\"`) {
			t.Errorf("%s body: status %d (%s), want 400 naming the field", field, resp.StatusCode, e)
		}
	}
	resp, err := http.Get(h.URL + "/api/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestSubmitBodyLimit: bodies past MaxSubmitBytes get 413 and the JSON
// error shape; the largest suite circuit's inline .bench still fits.
func TestSubmitBodyLimit(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{})
	post := func(sp task.Spec) (int, map[string]string) {
		t.Helper()
		body, _ := json.Marshal(sp)
		resp, err := http.Post(h.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("status %d: undecodable body: %v", resp.StatusCode, err)
		}
		return resp.StatusCode, e
	}

	code, e := post(task.Spec{Kind: task.KindScreen, Circuit: "big",
		Bench: strings.Repeat("#", serve.MaxSubmitBytes)})
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(e["error"], "exceeds") {
		t.Errorf("oversized body: status %d, error %q; want 413", code, e["error"])
	}

	p, err := gen.ProfileByName("s38417")
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := bench.Write(&text, gen.Generate(p, 1)); err != nil {
		t.Fatal(err)
	}
	// An unknown kind fails validation after the whole body decoded, so
	// a 400 (not 413) shows the largest inline netlist is admitted.
	code, e = post(task.Spec{Kind: "nope", Circuit: "s38417", Bench: text.String()})
	if code != http.StatusBadRequest {
		t.Errorf("s38417 inline bench (%d bytes): status %d (%q), want 400 from validation",
			text.Len(), code, e["error"])
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"1024", 1024, false},
		{"4K", 4096, false},
		{"4KiB", 4096, false},
		{"4kb", 4096, false},
		{"256MiB", 256 << 20, false},
		{"1.5G", 3 << 29, false},
		{"2TiB", 2 << 40, false},
		{"", 0, true},
		{"MiB", 0, true},
		{"-1", 0, true},
		{"12XiB", 0, true},
	}
	for _, c := range cases {
		got, err := serve.ParseByteSize(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseByteSize(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseByteSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestTerminalJobDropsInlineBench: a terminal job keeps no inline
// netlist in its spec — retained jobs would otherwise hold up to
// MaxBenchBytes each — and its output is the one its netlist yields.
func TestTerminalJobDropsInlineBench(t *testing.T) {
	s, h, _ := testServer(t, serve.Config{Runners: 1})
	p, err := gen.ProfileByName("s1423")
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := bench.Write(&text, gen.Generate(p, 1)); err != nil {
		t.Fatal(err)
	}
	sp := task.Spec{Kind: task.KindScreen, Circuit: "inline", Bench: text.String()}
	want, err := task.Run(context.Background(), sp, engine.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	v := submit(t, h.URL, sp)
	if fin := waitTerminal(t, h.URL, v.ID, 30*time.Second); fin.Status != serve.StatusDone {
		t.Fatalf("job finished %s (%s)", fin.Status, fin.Error)
	}
	if got := result(t, h.URL, v.ID); got != want.Output {
		t.Errorf("inline-netlist job output =\n%s\nwant\n%s", got, want.Output)
	}
	got := s.Job(v.ID).Spec()
	if got.Bench != "" {
		t.Errorf("terminal job retains %d bytes of inline netlist", len(got.Bench))
	}
	if got.Kind != sp.Kind || got.Circuit != sp.Circuit {
		t.Errorf("terminal job spec = %s/%s, want %s/%s", got.Kind, got.Circuit, sp.Kind, sp.Circuit)
	}
}
