package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/trace"
)

// inboundTP is the canonical W3C example traceparent: trace
// 4bf92f3577b34da6a3ce929d0e0e4736, caller span 00f067aa0ba902b7.
const inboundTP = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// fetchTrace pulls a job's assembled span tree off the trace endpoint.
func fetchTrace(t *testing.T, base, id string) trace.Trace {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: status %d", id, resp.StatusCode)
	}
	tr, err := trace.ReadOTLP(resp.Body)
	if err != nil {
		t.Fatalf("trace %s: %v", id, err)
	}
	return tr
}

// TestTraceLinkage is the end-to-end acceptance check: a job submitted
// with a traceparent yields a span tree where the job span parents to
// the inbound (caller) span and every unit span parents to the job
// span.
func TestTraceLinkage(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{Runners: 2})

	v := submit(t, h.URL, task.Spec{
		Kind: task.KindFaultSim, Circuit: "s3384",
		Scale: 0.05, Cycles: 100, Units: 3,
		TraceParent: inboundTP,
	})
	if v.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("view trace_id = %q, want inbound trace", v.TraceID)
	}
	fv := waitTerminal(t, h.URL, v.ID, 30*time.Second)
	if fv.Status != serve.StatusDone {
		t.Fatalf("job %s finished %s (%s)", v.ID, fv.Status, fv.Error)
	}

	tr := fetchTrace(t, h.URL, v.ID)
	if got := tr.Ctx.Trace.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %s, want inbound trace", got)
	}
	if got := tr.Parent.String(); got != "00f067aa0ba902b7" {
		t.Fatalf("job span parent = %s, want inbound span", got)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("no spans")
	}
	root := tr.Spans[0]
	if root.Kind != trace.SpanRoot || root.Name != "job "+v.ID {
		t.Fatalf("root span = %q kind %q, want job %s root", root.Name, root.Kind, v.ID)
	}
	if root.Parent != tr.Parent {
		t.Fatalf("root span parent field = %s, want inbound span %s", root.Parent, tr.Parent)
	}

	units := 0
	for _, sp := range tr.Spans[1:] {
		switch sp.Kind {
		case trace.SpanUnit:
			units++
			if sp.Parent != root.ID {
				t.Errorf("unit span %q parents to %s, want job span %s", sp.Name, sp.Parent, root.ID)
			}
			if sp.Unclosed {
				t.Errorf("unit span %q unclosed on a done job", sp.Name)
			}
		case trace.SpanRoot:
			t.Errorf("second root span %q", sp.Name)
		}
		if sp.ID.IsZero() {
			t.Errorf("span %q has zero ID", sp.Name)
		}
	}
	if units != 3 {
		t.Fatalf("unit spans = %d, want 3", units)
	}

	// Resource attributes self-describe the run.
	attrs := map[string]string{}
	for _, a := range tr.Resource {
		attrs[a.Key] = a.Value
	}
	for _, want := range []struct{ k, v string }{
		{"job_id", v.ID}, {"kind", "faultsim"}, {"circuit", "s3384"},
		{"status", "done"}, {"journal.dropped_events", "0"},
	} {
		if attrs[want.k] != want.v {
			t.Errorf("resource %s = %q, want %q", want.k, attrs[want.k], want.v)
		}
	}
	if attrs["structural_hash"] == "" {
		t.Error("resource structural_hash missing on a done job")
	}
}

// TestTraceHeaderJoin covers the HTTP propagation path: a traceparent
// request header (no body field) joins the job to the caller's trace,
// and a malformed header is ignored rather than rejected.
func TestTraceHeaderJoin(t *testing.T) {
	_, h, _ := testServer(t, serve.Config{Runners: 1})

	post := func(header string) serve.View {
		t.Helper()
		body, _ := json.Marshal(task.Spec{Kind: task.KindScreen, Circuit: "s27"})
		req, err := http.NewRequest(http.MethodPost, h.URL+"/api/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if header != "" {
			req.Header.Set("traceparent", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit with header %q: status %d", header, resp.StatusCode)
		}
		var v serve.View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	joined := post(inboundTP)
	if joined.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("header join: trace_id = %q, want inbound trace", joined.TraceID)
	}
	waitTerminal(t, h.URL, joined.ID, 30*time.Second)
	tr := fetchTrace(t, h.URL, joined.ID)
	if got := tr.Parent.String(); got != "00f067aa0ba902b7" {
		t.Errorf("header join: job span parent = %s, want inbound span", got)
	}

	// Malformed header: advisory per W3C — accepted, fresh trace rooted.
	fresh := post("00-zzzz-bad-01")
	if fresh.TraceID == "" || fresh.TraceID == joined.TraceID {
		t.Errorf("malformed header: trace_id = %q, want a fresh trace", fresh.TraceID)
	}
}
