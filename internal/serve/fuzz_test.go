package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/task"
)

// FuzzSubmit posts arbitrary bodies to the submit endpoint: no body
// may produce a 5xx or a panic, and every non-202 answer carries the
// JSON error shape. Admitted jobs are canceled at once, and the runner
// only waits for that cancel, so the fuzzer exercises decoding,
// validation and admission rather than the engines.
func FuzzSubmit(f *testing.F) {
	f.Add([]byte(`{"kind":"faultsim","circuit":"s27","units":3}`))
	f.Add([]byte(`{"kind":"faultsim","circuit":"s27","cone_threshold":8}`))
	f.Add([]byte(`{"kind":"faultsim","circuit":"s27","cycles":2000000000}`))
	f.Add([]byte(`{"kind":"faultsim","circuit":"s27","eval":"event"}`))
	f.Add([]byte(`{"kind":"screen","circuit":"s2`))
	f.Add([]byte(`{"kind":"screen","circuit":"big","bench":"` + strings.Repeat("#", MaxSubmitBytes) + `"}`))
	f.Add([]byte(`{"kind":"screen","circuit":"s27","priority":3}`))
	f.Add([]byte(`{"kind":"faultsim","circuit":"s27","eval":"auto"}`))

	origRun, origCap := runTask, maxRetainedJobs
	f.Cleanup(func() { runTask, maxRetainedJobs = origRun, origCap })
	// A small cap keeps the fuzzer's job table, and with it its
	// memory, flat.
	maxRetainedJobs = 8
	runTask = func(ctx context.Context, sp task.Spec, _ *engine.Cache, _ *obs.Collector) (*task.Result, error) {
		<-ctx.Done()
		return &task.Result{Kind: sp.Kind}, ctx.Err()
	}
	s := New(Config{Runners: 1})
	h := httptest.NewServer(s.Handler())
	f.Cleanup(func() {
		h.Close()
		s.Close()
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(h.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case resp.StatusCode >= 500:
			t.Fatalf("body %q: status %d: %s", body, resp.StatusCode, data)
		case resp.StatusCode == http.StatusAccepted:
			var v View
			if err := json.Unmarshal(data, &v); err != nil || v.ID == "" {
				t.Fatalf("body %q: 202 with undecodable view %q: %v", body, data, err)
			}
			s.Cancel(v.ID)
		default:
			var e map[string]string
			if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
				t.Fatalf("body %q: status %d without the JSON error shape: %q", body, resp.StatusCode, data)
			}
		}
	})
}
