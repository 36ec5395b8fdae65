package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// LiveJob is one job's entry on /api/v1/live: identity, lifecycle
// state, the job's error, and its progress snapshot (null while the job
// is queued — no runner has started it yet).
type LiveJob struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Circuit string `json:"circuit"`
	// TraceID is the job's distributed-trace identity, the handle into
	// GET /api/v1/trace/{id}: a dashboard can jump from a stalled job
	// straight to the job's span tree.
	TraceID string `json:"trace_id,omitempty"`
	Status  Status `json:"status"`
	// Error is the job's failure or cancellation reason, if any.
	Error    string              `json:"error,omitempty"`
	Progress *telemetry.Snapshot `json:"progress"`
}

// LiveView is the /api/v1/live response: every job's progress plus
// the watchdog's stall threshold, so a dashboard can render "no
// heartbeat for X of Y" without knowing the daemon's flags.
type LiveView struct {
	StallThresholdNS int64     `json:"stall_threshold_ns"`
	Jobs             []LiveJob `json:"jobs"`
}

// liveSnapshot freezes the live view. With runningOnly, terminal and
// queued jobs are dropped.
func (s *Server) liveSnapshot(runningOnly bool) LiveView {
	v := LiveView{
		StallThresholdNS: s.watchdog.Threshold().Nanoseconds(),
		Jobs:             []LiveJob{},
	}
	for _, j := range s.Jobs() {
		j.mu.Lock()
		st, errMsg, tracker := j.status, j.errMsg, j.tracker
		j.mu.Unlock()
		if runningOnly && st != StatusRunning {
			continue
		}
		v.Jobs = append(v.Jobs, LiveJob{
			ID: j.ID(), Kind: j.spec.Kind, Circuit: j.spec.Circuit,
			TraceID: j.tctx.Trace.String(),
			Status:  st, Error: errMsg, Progress: tracker.Snapshot(),
		})
	}
	return v
}

// handleLive serves the live introspection snapshot: per-job progress,
// throughput and stall flags. ?running=1 keeps only running jobs.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.liveSnapshot(r.URL.Query().Get("running") == "1"))
}

// handleLiveEvents streams the live view as Server-Sent Events: one
// `event: live` frame per progress transition (run start, axis,
// finish, stall flag, job terminal), coalesced under the same
// epoch-channel hub the per-job streams use, plus a periodic refresh so
// wall-clock fields (wall and idle age) stay current during long quiet
// runs. The stream ends when the client disconnects or the server shuts
// down.
func (s *Server) handleLiveEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	refresh := time.NewTicker(2 * time.Second)
	defer refresh.Stop()
	for {
		// Grab the epoch before snapshotting, so a transition landing
		// after the snapshot is guaranteed to wake the wait below.
		epoch := s.liveHub.wait()
		payload, _ := json.Marshal(s.liveSnapshot(false))
		fmt.Fprintf(w, "event: live\ndata: %s\n\n", payload)
		flusher.Flush()
		select {
		case <-epoch:
			if s.ctx.Err() != nil {
				return
			}
		case <-refresh.C:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}
