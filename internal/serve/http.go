package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/trace"
)

// Handler returns the daemon's HTTP API. See SERVICE.md for the
// operator-facing reference of every route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /api/v1/server", s.handleServer)
	mux.HandleFunc("GET /api/v1/history", s.handleHistory)
	mux.HandleFunc("GET /api/v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	return s.logRequests(mux)
}

// logRequests wraps the API mux with one structured debug line per
// completed request (method, path, status, duration). Debug level keeps
// polling dashboards out of an info-level log; the job-lifecycle lines
// carry the operational story.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.log.Debug("request",
			slog.String("method", r.Method), slog.String("path", r.URL.Path),
			slog.Int("status", sw.code), slog.Duration("dur", time.Since(start)))
	})
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (the SSE handler requires it).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeError emits the API's uniform error shape.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// MaxSubmitBytes bounds a job submission's JSON body. Inline .bench
// text dominates it: the largest suite circuit (s38417, ~22k gates)
// serializes to ~0.75 MB, so 4 MiB leaves room for longer signal names
// while keeping one request from buffering unbounded memory. Larger
// bodies are answered 413.
const MaxSubmitBytes = 4 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp task.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("spec body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	// An inbound W3C traceparent header joins the job to the caller's
	// trace. The header is advisory per the spec — a malformed one is
	// ignored, not rejected — while a traceparent inside the spec body
	// is an explicit field and stays subject to strict validation in
	// Normalize. The body wins when both are present.
	if tp := r.Header.Get("traceparent"); tp != "" && sp.TraceParent == "" {
		if _, err := trace.Parse(tp); err == nil {
			sp.TraceParent = tp
		}
	}
	j, err := s.Submit(sp)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, j.View())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	views := make([]View, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.Status()
	if !st.Terminal() {
		writeError(w, http.StatusConflict, "job "+j.ID()+" is "+string(st))
		return
	}
	out := j.Output()
	if st != StatusDone && out == "" {
		writeError(w, http.StatusConflict, "job "+j.ID()+" "+string(st)+" with no output")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if st != StatusDone {
		w.Header().Set("X-Fsctd-Partial", string(st))
	}
	_, _ = w.Write([]byte(out))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.Job(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !s.Cancel(id) {
		writeError(w, http.StatusConflict, "job "+id+" already "+string(j.Status()))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleTrace serves the job's assembled span tree as an OTLP/JSON
// payload: the job span (child of the submitter's span when the
// submission carried a traceparent), per-unit spans and their nested
// phase/pool/ATPG spans. Works on running jobs too — open spans end
// "now" — so operators can inspect a stuck job's partial trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = trace.WriteOTLP(w, j.Trace(s.runID))
}

// ServerView is the /api/v1/server snapshot: queue and job-table
// occupancy, the engine cache's live accounting, the server's lifetime
// counters and the watchdog's stall threshold, so a dashboard can
// render "no heartbeat for X of Y" without knowing the daemon's flags.
type ServerView struct {
	UptimeNS         int64            `json:"uptime_ns"`
	Runners          int              `json:"runners"`
	QueueDepth       int              `json:"queue_depth"`
	QueueLimit       int              `json:"queue_limit"`
	StallThresholdNS int64            `json:"stall_threshold_ns"`
	Jobs             map[string]int   `json:"jobs"`
	Cache            cacheView        `json:"cache"`
	Counters         map[string]int64 `json:"counters,omitempty"`
}

type cacheView struct {
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	Budget     int64 `json:"budget"`
	MaxEntries int   `json:"max_entries"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
}

func (s *Server) handleServer(w http.ResponseWriter, _ *http.Request) {
	byStatus := map[string]int{}
	for _, j := range s.Jobs() {
		byStatus[string(j.Status())]++
	}
	st := s.cache.Stats()
	view := ServerView{
		UptimeNS:         time.Since(s.start).Nanoseconds(),
		Runners:          s.cfg.Runners,
		QueueDepth:       s.q.depth(),
		QueueLimit:       s.cfg.QueueLimit,
		StallThresholdNS: s.watchdog.Threshold().Nanoseconds(),
		Jobs:             byStatus,
		Cache: cacheView{
			Entries: st.Entries, Bytes: st.Bytes, Budget: st.Budget,
			MaxEntries: st.MaxEntries, Hits: st.Hits, Misses: st.Misses,
			Evictions: st.Evictions,
		},
		Counters: s.col.Snapshot().Counters,
	}
	writeJSON(w, http.StatusOK, view)
}

// handleMetrics exposes the server's lifetime counters in the
// OpenMetrics text format, with the engine cache's live occupancy
// injected as serve.cache.* samples at scrape time (cache state is a
// gauge-like quantity the counter API cannot carry).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.col.Snapshot()
	if m.Counters == nil {
		m.Counters = map[string]int64{}
	}
	st := s.cache.Stats()
	m.Counters["serve.cache.entries"] = int64(st.Entries)
	m.Counters["serve.cache.bytes"] = st.Bytes
	m.Counters["serve.cache.hits"] = st.Hits
	m.Counters["serve.cache.misses"] = st.Misses
	m.Counters["serve.cache.evictions"] = st.Evictions
	m.Counters["serve.queue.depth"] = int64(s.q.depth())
	// The jobs flagged stalled right now, counted at scrape time
	// (gauge-like, same convention as the cache samples), plus the
	// flight recorders' total overwrite count.
	var stalled, dropped int64
	for _, j := range s.Jobs() {
		if p := j.progress(); p != nil && p.Stalled {
			stalled++
		}
		dropped += j.rec.Dropped()
	}
	m.Counters["serve.jobs.stalled"] = stalled
	m.Counters["journal.dropped_events"] = dropped
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	_ = obs.WriteOpenMetrics(w, m)
}

// handleHistory serves the run ledger as JSON, newest last. Query
// parameters: ?last=N (newest N records), ?circuit=<name>.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.cfg.LedgerPath == "" {
		writeError(w, http.StatusNotFound, "no ledger configured (-ledger)")
		return
	}
	recs, err := ledger.Read(s.cfg.LedgerPath)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	f := ledger.Filter{Circuit: r.URL.Query().Get("circuit")}
	if last := r.URL.Query().Get("last"); last != "" {
		n, err := strconv.Atoi(last)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad last="+last)
			return
		}
		f.Last = n
	}
	recs = f.Apply(recs)
	if recs == nil {
		recs = []ledger.Record{}
	}
	writeJSON(w, http.StatusOK, recs)
}
