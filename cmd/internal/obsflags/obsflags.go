// Package obsflags gives every CLI in this repository the same
// observability flag surface and lifecycle:
//
//	-metrics     instrument the run, emit a metrics snapshot
//	-tracefile   export the run's flight-recorder timeline as a Chrome
//	             trace-event JSON file (chrome://tracing, Perfetto)
//	-otlpfile    export the same timeline as an OTLP/JSON span tree
//	             (OpenTelemetry collectors, fsctstats trace)
//	-progress    live progress on stderr: stamped phase and summary
//	             lines plus a throttled rate/ETA line (TTY-aware)
//	-debug       /debug/pprof + /debug/vars + /metrics HTTP server
//	-ledger      append the run's records to a JSONL run ledger
//	-memprofile  write a pprof heap profile on exit
//	-log         structured slog lines on stderr at a level
//	-logfile     append structured JSON log lines to a file
//
// A command calls Register before flag.Parse, Open after it, hands
// Session.Collector() to whatever it runs, and ends the process with
// Session.Exit or Session.Fail — including error and SIGINT paths,
// because os.Exit skips deferred calls and the trace files and the
// ledger records are written when Exit closes the session. Commands
// report per-circuit results with RecordRun, so interrupted runs land
// in the ledger with whatever they completed and their exit status.
//
// The session's flight recorder is the run's only live sink: the
// -progress renderer subscribes to it, and -tracefile/-otlpfile export
// what it recorded.
//
// Every session also roots a distributed-trace context: a fresh
// 128-bit trace ID, or — when the TRACEPARENT environment variable
// carries a valid W3C traceparent — a child of the caller's span, so a
// CI script's trace threads through the CLIs it invokes. Commands
// stamp it into the specs they run with StampTrace; -otlpfile exports
// the assembled span tree on Close.
package obsflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Flags holds the shared observability flag values.
type Flags struct {
	Metrics    bool
	TraceFile  string
	OTLPFile   string
	Progress   bool
	Debug      string
	Ledger     string
	MemProfile string
	Log        string
	LogFile    string

	fs *flag.FlagSet // consulted at Open for the explicitly-set flags
}

// Register installs the shared flags on fs (flag.CommandLine in the
// CLIs) and returns the value struct to read after parsing.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.BoolVar(&f.Metrics, "metrics", false, "instrument the run and report metrics")
	fs.StringVar(&f.TraceFile, "tracefile", "", "export the run's timeline to this `file` as Chrome trace events (chrome://tracing, Perfetto); same events as -otlpfile, viewer-oriented form")
	fs.StringVar(&f.OTLPFile, "otlpfile", "", "export the run's timeline to this `file` as an OTLP/JSON span tree (OpenTelemetry collectors, fsctstats trace); same events as -tracefile, tooling-oriented form")
	fs.BoolVar(&f.Progress, "progress", false, "render live progress on stderr: stamped phase and summary lines, and a rate/ETA line per phase")
	fs.StringVar(&f.Debug, "debug", "", "serve /debug/pprof, /debug/vars and /metrics on this `address` (e.g. localhost:6060)")
	fs.StringVar(&f.Ledger, "ledger", "", "append this run's records to the JSONL run ledger at `file` (query with cmd/fsctstats)")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this `file` on exit (SIGINT included)")
	fs.StringVar(&f.Log, "log", "", "emit structured log lines on stderr at this `level` (debug, info, warn, error)")
	fs.StringVar(&f.LogFile, "logfile", "", "append structured JSON log lines to this `file` (level from -log, default info)")
	return f
}

// Active reports whether any flag asks for instrumentation — commands
// use it to decide between the nil (free) collector and a real one.
// -ledger counts: its records carry the metrics snapshot.
func (f *Flags) Active() bool {
	return f.Metrics || f.TraceFile != "" || f.OTLPFile != "" ||
		f.Progress || f.Debug != "" || f.Ledger != ""
}

// setFlags collects the flags that were explicitly set on the command
// line, for the ledger record's provenance.
func (f *Flags) setFlags() map[string]string {
	if f.fs == nil {
		return nil
	}
	out := map[string]string{}
	f.fs.Visit(func(fl *flag.Flag) {
		out[fl.Name] = fl.Value.String()
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// Session is the process-wide observability state behind the flags:
// one flight recorder shared by every collector the command creates
// (per-circuit collectors merge into one timeline), the progress
// renderer subscribed to it, the debug server, and the pending ledger
// records flushed on Close.
type Session struct {
	flags    *Flags
	recorder *journal.Recorder
	progress *journal.Progress
	server   *http.Server

	logger  *slog.Logger
	runID   string
	logFile *os.File

	cli   string
	start time.Time

	// tctx is the run's root trace context (the CLI invocation's span);
	// tparent is the caller's span when TRACEPARENT carried one.
	tctx    trace.Context
	tparent trace.SpanID

	mu         sync.Mutex
	runs       []ledger.Record
	exit       int
	circuits   []string     // distinct circuits seen by RecordRun
	hash       uint64       // last nonzero structural hash
	traceAttrs []trace.Attr // extra OTLP resource attrs (SetTraceAttr)

	closeOnce sync.Once
	closeErr  error
}

// Open starts the session's sinks: the journal recorder (when
// -tracefile or -progress need the event stream), the progress
// renderer, and the debug server. The zero-flag session is valid and
// free.
func (f *Flags) Open() (*Session, error) {
	if f.TraceFile != "" && f.OTLPFile != "" &&
		filepath.Clean(f.TraceFile) == filepath.Clean(f.OTLPFile) {
		return nil, fmt.Errorf("-tracefile and -otlpfile name the same path %q: the exporters would overwrite each other (they share events, not a format)", f.TraceFile)
	}
	s := &Session{flags: f, start: time.Now(), cli: cliName()}
	// Root the run's trace. A valid TRACEPARENT in the environment makes
	// this invocation a child of the caller's span (CI scripts, make
	// targets); anything else — unset or malformed — roots a fresh trace,
	// the header being advisory by W3C convention.
	var caller trace.Context
	if pc, err := trace.Parse(os.Getenv("TRACEPARENT")); err == nil {
		caller = pc
	}
	s.tctx, s.tparent = caller.Child(), caller.Span
	if err := s.openLogger(); err != nil {
		return nil, err
	}
	if f.TraceFile != "" || f.OTLPFile != "" || f.Progress {
		s.EnsureRecorder()
	}
	if f.Progress {
		s.progress = journal.NewProgress(os.Stderr, stderrIsTTY())
		s.recorder.Subscribe(s.progress.Observe)
	}
	if f.Debug != "" {
		srv, err := obs.ServeDebug(f.Debug)
		if err != nil {
			s.closeLogFile()
			return nil, err
		}
		s.server = srv
	}
	s.logger.Info("run started", slog.String("cli", s.cli))
	return s, nil
}

// openLogger builds the session's structured logger from -log (text on
// stderr) and -logfile (JSON appended to a file), stamps every line
// with a fresh run_id, and leaves the free discard logger when neither
// flag is set.
func (s *Session) openLogger() error {
	f := s.flags
	lvl := slog.LevelInfo
	if f.Log != "" {
		var err error
		if lvl, err = telemetry.ParseLevel(f.Log); err != nil {
			return err
		}
	}
	var handlers []slog.Handler
	if f.Log != "" {
		handlers = append(handlers, slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	}
	if f.LogFile != "" {
		w, err := os.OpenFile(f.LogFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("logfile: %w", err)
		}
		s.logFile = w
		handlers = append(handlers, slog.NewJSONHandler(w, &slog.HandlerOptions{Level: lvl}))
	}
	s.runID = telemetry.NewRunID()
	s.logger = slog.New(telemetry.Fanout(handlers...)).With(
		slog.String(telemetry.KeyRunID, s.runID),
		slog.String(telemetry.KeyTraceID, s.tctx.Trace.String()))
	return nil
}

// closeLogFile closes the -logfile sink, once.
func (s *Session) closeLogFile() {
	if s.logFile != nil {
		_ = s.logFile.Close()
		s.logFile = nil
	}
}

// Logger returns the session's structured logger (the discard logger
// when neither -log nor -logfile was set — log unconditionally). Every
// line carries the session's run_id.
func (s *Session) Logger() *slog.Logger { return s.logger }

// RunID returns the identifier correlating this process run's log
// lines.
func (s *Session) RunID() string { return s.runID }

// TraceContext returns the run's root trace context: the span that
// owns everything this process does. Its Traceparent() is what
// StampTrace writes into specs.
func (s *Session) TraceContext() trace.Context { return s.tctx }

// StampTrace stamps the session's trace context into sp, so the unit
// spans the executor emits — and, for a spec forwarded to fsctd, the
// daemon's job span — parent to this CLI invocation's root span. Call
// it on every spec the command runs; the field never affects results.
func (s *Session) StampTrace(sp *task.Spec) {
	sp.TraceParent = s.tctx.Traceparent()
}

// SetTraceAttr adds one resource attribute to the run's exported trace
// (the eval backend, say — facts the session cannot see from its own
// flags). Later values for the same key win at export.
func (s *Session) SetTraceAttr(key, value string) {
	s.mu.Lock()
	s.traceAttrs = append(s.traceAttrs, trace.Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Trace assembles the run's span tree from the flight recorder: the
// root span (this CLI invocation, parented to TRACEPARENT's span when
// one was inherited), one span per executed unit, and the phase,
// worker-pool and ATPG spans inside each. The resource attributes
// carry the run identity — run_id, cli, the circuits RecordRun saw,
// the last structural hash, any SetTraceAttr extras — plus the
// recorder's dropped-event count, so truncated traces self-describe.
func (s *Session) Trace() trace.Trace {
	s.mu.Lock()
	attrs := []trace.Attr{{Key: "run_id", Value: s.runID}, {Key: "cli", Value: s.cli}}
	if len(s.circuits) > 0 {
		attrs = append(attrs, trace.Attr{Key: "circuit", Value: strings.Join(s.circuits, ",")})
	}
	attrs = append(attrs, s.traceAttrs...)
	hash := s.hash
	s.mu.Unlock()
	return trace.FromRecorder(s.recorder, s.tctx, s.tparent, s.cli, -1, hash, attrs...)
}

// writeOTLP exports the assembled span tree to -otlpfile.
func (s *Session) writeOTLP() error {
	if s.flags.OTLPFile == "" {
		return nil
	}
	w, err := os.Create(s.flags.OTLPFile)
	if err != nil {
		return fmt.Errorf("otlpfile: %w", err)
	}
	err = trace.WriteOTLP(w, s.Trace())
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("otlpfile: %w", err)
	}
	return nil
}

// TrackCtx installs a unit tracker for the run described by kind and
// circuit: unit lifecycle transitions land in the session log under
// correlated run_id/unit_id attributes. The tracker does not subscribe
// to the flight recorder: in a CLI nothing reads its live estimate (no
// watchdog, no live endpoint), so its log lines are its only output.
// The returned context carries the tracker into task.Execute; pass it
// to the run.
func (s *Session) TrackCtx(ctx context.Context, kind, circuit string) context.Context {
	tr := telemetry.NewRunTracker(telemetry.Info{
		RunID: s.runID, Kind: kind, Circuit: circuit,
		TraceID: s.tctx.Trace.String(),
	}, s.logger)
	return task.WithTracker(ctx, tr)
}

// EnsureRecorder attaches a flight recorder even when no flag asked
// for one (fsctest -why needs the event stream regardless of
// -tracefile), and returns it.
func (s *Session) EnsureRecorder() *journal.Recorder {
	if s.recorder == nil {
		s.recorder = journal.New(0)
	}
	return s.recorder
}

// Recorder returns the session's journal recorder; nil (a valid no-op
// sink) when no sink needed one.
func (s *Session) Recorder() *journal.Recorder { return s.recorder }

// Collector returns a fresh enabled collector wired to the session's
// shared journal and publishes it for /debug/vars and /metrics. It
// returns nil (the disabled collector) when no instrumentation was
// requested, so callers can pass the result straight into option
// structs.
func (s *Session) Collector() *obs.Collector {
	if !s.flags.Active() && s.recorder == nil {
		return nil
	}
	col := obs.New()
	col.SetJournal(s.recorder)
	obs.Publish(col)
	return col
}

// RecordRun queues one ledger record for the circuit just processed:
// its name, structural hash (0 for none — the engine cache key, so
// runs over structurally identical circuits compare across machines),
// the metrics snapshot, and optional headline scalars ("coverage")
// merged into the flattened metric map. The circuit and hash also land
// in the exported trace's resource attributes (every exporter wants
// them, not just the ledger). Otherwise a no-op unless -ledger was
// set. The record is completed (timestamp, CLI, flags, exit status,
// wall time) and appended by Close.
func (s *Session) RecordRun(circuit string, hash uint64, m *obs.Metrics, extra map[string]float64) {
	s.mu.Lock()
	if circuit != "" && !slices.Contains(s.circuits, circuit) {
		s.circuits = append(s.circuits, circuit)
	}
	if hash != 0 {
		s.hash = hash
	}
	s.mu.Unlock()
	if s.flags.Ledger == "" {
		return
	}
	rec := ledger.NewRecord(circuit, hash, m, extra)
	s.mu.Lock()
	s.runs = append(s.runs, rec)
	s.mu.Unlock()
}

// AppendRun writes one completed ledger record immediately instead of
// queueing it for Close. Long-lived daemons (cmd/fsctd) use it so each
// finished job is durable the moment it completes — a crashed daemon
// loses nothing already served — while short-lived CLIs keep the
// one-write-at-Close path of RecordRun. The record is completed the
// same way Close would (timestamp = now rather than process start,
// CLI, explicitly-set flags, per-record exit, wall = record's own
// duration as provided). No-op unless -ledger was set.
func (s *Session) AppendRun(rec ledger.Record, exit int, wall time.Duration) error {
	if s.flags.Ledger == "" {
		return nil
	}
	rec.Schema = ledger.Schema
	rec.Time = time.Now()
	rec.CLI = s.cli
	rec.Flags = s.flags.setFlags()
	rec.Exit = exit
	rec.WallNS = wall.Nanoseconds()
	return ledger.Append(s.flags.Ledger, rec)
}

// setExit declares the status the process is about to exit with, for
// the ledger records Close flushes. Exit calls it before Close.
func (s *Session) setExit(code int) {
	s.mu.Lock()
	s.exit = code
	s.mu.Unlock()
}

// Exit ends the process with code through the session: it records code
// for the ledger (setExit) and closes the session, so -tracefile,
// -otlpfile, -memprofile and the -ledger records are written even
// though os.Exit skips deferred calls. A Close error is printed and
// makes the code 1. The nil session (Open failed) only exits. Every
// CLI exit path goes through Exit or Fail.
func (s *Session) Exit(code int) {
	if s != nil {
		s.setExit(code)
		if err := s.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", cliName(), err)
			code = 1
		}
	}
	os.Exit(code)
}

// Fail prints err on stderr under the command's name ("interrupted"
// when err is a context cancellation) and exits 1 through Exit.
func (s *Session) Fail(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", cliName())
	} else {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cliName(), err)
	}
	s.Exit(1)
}

// cliName is the command's name as invoked, the prefix of its error
// lines and the CLI field of its ledger records.
func cliName() string { return filepath.Base(os.Args[0]) }

// Close flushes the session's sinks: the live progress line is
// terminated, the journal is exported to -tracefile and the assembled
// span tree to -otlpfile, and the pending
// run records are appended to -ledger (also on interrupted runs — the
// partial history is exactly what a SIGINT investigation wants). Safe
// to call more than once; every exit path must reach it because
// os.Exit skips defers, which is why CLIs exit through Exit.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.progress.Flush()
		if s.flags.TraceFile != "" && s.recorder != nil {
			s.closeErr = s.writeTrace()
		}
		if err := s.writeOTLP(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
		if err := s.writeLedger(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
		if err := s.writeMemProfile(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
		if s.server != nil {
			_ = s.server.Close()
		}
		s.mu.Lock()
		exit := s.exit
		s.mu.Unlock()
		s.logger.Info("run finished",
			slog.Int("exit", exit), slog.Duration("wall", time.Since(s.start)))
		s.closeLogFile()
	})
	return s.closeErr
}

// writeMemProfile writes the heap profile to -memprofile. A GC first
// brings the profile up to date (heap profiles are recorded at GC
// points), so short runs do not export an empty profile.
func (s *Session) writeMemProfile() error {
	if s.flags.MemProfile == "" {
		return nil
	}
	w, err := os.Create(s.flags.MemProfile)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

func (s *Session) writeTrace() error {
	w, err := os.Create(s.flags.TraceFile)
	if err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	err = journal.WriteTrace(w, s.recorder.Snapshot(), s.recorder.Dropped())
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	return nil
}

// writeLedger completes the queued run records with the session-wide
// fields and appends them. A run that recorded no circuit still leaves
// one (circuit-less) record, so every -ledger invocation is in the
// history — including ones that failed before any circuit completed.
func (s *Session) writeLedger() error {
	if s.flags.Ledger == "" {
		return nil
	}
	s.mu.Lock()
	recs := s.runs
	if len(recs) == 0 {
		recs = []ledger.Record{{}}
	}
	exit := s.exit
	s.mu.Unlock()
	flags := s.flags.setFlags()
	wall := time.Since(s.start).Nanoseconds()
	for i := range recs {
		recs[i].Schema = ledger.Schema
		recs[i].Time = s.start
		recs[i].CLI = s.cli
		recs[i].Flags = flags
		recs[i].Exit = exit
		recs[i].WallNS = wall
	}
	return ledger.Append(s.flags.Ledger, recs...)
}

// stderrIsTTY reports whether stderr is a character device, selecting
// in-place progress rewriting over plain log lines.
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
