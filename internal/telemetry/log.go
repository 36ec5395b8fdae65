package telemetry

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// Canonical attribute keys for correlated structured logs. Every log
// line a run emits carries the run's identity under these keys, so one
// `grep run_id=...` (or a structured query over the JSON stream)
// reassembles a single run's story across process and job logs.
const (
	// KeyRunID correlates every line of one process run (batch CLI) or
	// one daemon process lifetime.
	KeyRunID = "run_id"
	// KeyJobID correlates the lines of one daemon job.
	KeyJobID = "job_id"
	// KeyTraceID correlates log lines with the run's distributed trace
	// (internal/trace): the 32-hex-digit W3C trace ID.
	KeyTraceID = "trace_id"
)

// runIDCounter disambiguates run IDs minted within one nanosecond tick
// (tests mint many back to back).
var runIDCounter atomic.Uint64

// NewRunID mints a compact, process-unique run identifier: the wall
// clock and PID keep it unique across processes on one machine, the
// counter keeps it unique within a process. It is an identity for log
// correlation, not a secret — no randomness source is consulted.
func NewRunID() string {
	n := runIDCounter.Add(1)
	return fmt.Sprintf("%x-%x-%x", time.Now().UnixNano(), os.Getpid(), n)
}

// ParseLevel resolves a -log flag value onto a slog level. Accepted
// values (case-insensitive): debug, info, warn, error.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn or error)", s)
}

// Discard returns a logger that drops everything — the disabled logger
// the flag layer hands out when neither -log nor -logfile is set, so
// call sites log unconditionally instead of nil-checking.
func Discard() *slog.Logger { return slog.New(discardHandler{}) }

// discardHandler is a slog.Handler that is disabled at every level.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// Fanout composes handlers: a record goes to every handler enabled for
// its level, and attrs/groups distribute to all of them. The flag layer
// uses it to drive -log (human-readable stderr) and -logfile (JSON
// file) from one logger. Zero handlers yield the discard handler.
func Fanout(handlers ...slog.Handler) slog.Handler {
	if len(handlers) == 0 {
		return discardHandler{}
	}
	if len(handlers) == 1 {
		return handlers[0]
	}
	return fanoutHandler(handlers)
}

type fanoutHandler []slog.Handler

func (f fanoutHandler) Enabled(ctx context.Context, lvl slog.Level) bool {
	for _, h := range f {
		if h.Enabled(ctx, lvl) {
			return true
		}
	}
	return false
}

func (f fanoutHandler) Handle(ctx context.Context, r slog.Record) error {
	var first error
	for _, h := range f {
		if !h.Enabled(ctx, r.Level) {
			continue
		}
		if err := h.Handle(ctx, r.Clone()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (f fanoutHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	out := make(fanoutHandler, len(f))
	for i, h := range f {
		out[i] = h.WithAttrs(attrs)
	}
	return out
}

func (f fanoutHandler) WithGroup(name string) slog.Handler {
	out := make(fanoutHandler, len(f))
	for i, h := range f {
		out[i] = h.WithGroup(name)
	}
	return out
}
