package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states: queued -> running -> done | failed | canceled
// (queued jobs can go straight to canceled).
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (st Status) Terminal() bool {
	return st == StatusDone || st == StatusFailed || st == StatusCanceled
}

// Job is one admitted submission: its spec, its private flight
// recorder (the SSE source), its cancellation handle and its mutable
// lifecycle state. Execution itself lives in internal/task; the Job
// only wraps queue position, status and streaming.
type Job struct {
	id        string
	spec      task.Spec
	submitted time.Time

	ctx    context.Context
	cancel context.CancelFunc
	rec    *journal.Recorder
	hub    *hub

	// tctx is the job's own trace context (its span is the job span);
	// tparent is the submitter's span when the submission carried a
	// traceparent, zero otherwise. Both are fixed at admission.
	tctx    trace.Context
	tparent trace.SpanID

	mu        sync.Mutex
	status    Status
	errMsg    string
	output    string
	hash      uint64 // structural hash of the run's circuit, once known
	started   time.Time
	finished  time.Time
	queueWait time.Duration
	tracker   *telemetry.RunTracker // set when a runner picks the job up
}

func newJob(parent context.Context, seq int64, sp task.Spec) *Job {
	// The job joins the submitter's trace when the (already normalized)
	// spec carries a traceparent — the job span becomes a child of the
	// caller's span — and roots a fresh trace otherwise. Trace assembles
	// the executor's unit spans under the job span.
	caller, _ := sp.TraceContext()
	tctx := caller.Child()
	ctx, cancel := context.WithCancel(parent)
	j := &Job{
		tctx:      tctx,
		tparent:   caller.Span,
		id:        fmt.Sprintf("j%06d", seq),
		spec:      sp,
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		rec:       journal.New(0),
		hub:       newHub(),
		status:    StatusQueued,
	}
	j.rec.Subscribe(func(journal.Event) { j.hub.bump() })
	return j
}

// ID returns the server-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's submission spec. A terminal job's spec has
// its inline netlist (Bench) dropped.
func (j *Job) Spec() task.Spec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Output returns the job's text report (complete for done jobs,
// partial or empty otherwise).
func (j *Job) Output() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.output
}

// progress freezes the job's run progress, or nil while the job has
// not reached a runner (queued and early-canceled jobs have no tracker).
func (j *Job) progress() *telemetry.Snapshot {
	j.mu.Lock()
	tr := j.tracker
	j.mu.Unlock()
	return tr.Snapshot()
}

// Trace assembles the job's current span tree from its flight
// recorder: the job span (parented to the submitter's span when the
// submission carried a traceparent), the run's unit span, the phases
// inside it and their pool/ATPG leaves. Safe on a live
// job — spans still open simply end "now" and carry the unclosed
// attribute — and a run that ended in an error, a cancel or a panic
// marks its unit span interrupted. runID is stamped into
// the resource attributes alongside the job identity, the circuit's
// structural hash (once the run resolved it) and the
// recorder's dropped-event count, so truncated traces self-describe.
func (j *Job) Trace(runID string) trace.Trace {
	j.mu.Lock()
	status := j.status
	hash := j.hash
	finished := j.finished
	j.mu.Unlock()
	endNS := int64(-1) // live: the recorder's elapsed offset
	if status.Terminal() && !finished.IsZero() {
		endNS = finished.Sub(j.rec.Origin()).Nanoseconds()
	}
	return trace.FromRecorder(j.rec, j.tctx, j.tparent, "job "+j.id, endNS, hash,
		trace.Attr{Key: "run_id", Value: runID},
		trace.Attr{Key: "job_id", Value: j.id},
		trace.Attr{Key: "kind", Value: j.spec.Kind},
		trace.Attr{Key: "circuit", Value: j.spec.Circuit},
		trace.Attr{Key: "status", Value: string(status)})
}

// View is the JSON shape of a job on the status endpoints. Started and
// Finished are nil until the job reaches those states, Progress until a
// runner starts it.
type View struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Circuit string `json:"circuit"`
	// TraceID is the job's distributed-trace identity (32 hex digits);
	// GET /api/v1/trace/{id} returns the assembled span tree.
	TraceID   string     `json:"trace_id,omitempty"`
	Status    Status     `json:"status"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	QueueNS   int64      `json:"queue_ns"`
	Events    int        `json:"events"`
	// Progress is the run tracker's snapshot: faults done of the fault
	// axis, detections, throughput and the watchdog's stall flag.
	Progress *telemetry.Snapshot `json:"progress"`
}

// View snapshots the job for JSON encoding.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:        j.id,
		Kind:      j.spec.Kind,
		Circuit:   j.spec.Circuit,
		TraceID:   j.tctx.Trace.String(),
		Status:    j.status,
		Error:     j.errMsg,
		Submitted: j.submitted,
		QueueNS:   j.queueWait.Nanoseconds(),
		Events:    j.rec.Len(),
		Progress:  j.tracker.Snapshot(),
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}
