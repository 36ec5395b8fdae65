package task

import "context"

// Tracker observes a job's run: Run announces its start and finish, so
// an observability layer (internal/telemetry) can account progress,
// heartbeats and stall detection without the task layer depending on
// it. Both hooks run on the goroutine that calls Run.
//
// UnitStarted receives the run's normalized spec; UnitFinished its
// Result (carrying whatever ran) and the run error (context.Canceled,
// possibly wrapped, for an interrupted run).
type Tracker interface {
	UnitStarted(sp Spec)
	UnitFinished(res *Result, err error)
}

// trackerKey carries the context's Tracker.
type trackerKey struct{}

// WithTracker returns a context that carries tr; Run calls the
// tracker's hooks for a run under that context. The tracker rides the
// context rather than the Run signature so every entry point — the
// CLIs and the daemon's runners — threads it without widening the
// pipeline API.
func WithTracker(ctx context.Context, tr Tracker) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, trackerKey{}, tr)
}

// TrackerFrom returns the context's Tracker, or nil when none is
// attached.
func TrackerFrom(ctx context.Context) Tracker {
	tr, _ := ctx.Value(trackerKey{}).(Tracker)
	return tr
}
