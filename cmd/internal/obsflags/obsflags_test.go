package obsflags

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/trace"
)

// open builds a Session from an isolated FlagSet parsed with args.
func open(t *testing.T, args ...string) *Session {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCloseTwiceNoRecorder pins the SIGINT double-close hazard: every
// CLI closes the session both from Session.Exit and from a deferred
// call, usually with no recorder or sink attached at all. Both closes
// must be safe no-ops returning the same (nil) error.
func TestCloseTwiceNoRecorder(t *testing.T) {
	s := open(t)
	if s.Recorder() != nil {
		t.Fatal("zero-flag session must not attach a recorder")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseTwiceWithSinks: with a trace file configured, the second
// Close must not rewrite the file or fail — and must report the first
// Close's error state unchanged. The file holds the session's span
// tree: the root span named after the CLI and the phase under it.
func TestCloseTwiceWithSinks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	s := open(t, "-tracefile", path)
	s.Collector().Phase("p").End()
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close after flush: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Ph, Name, Cat string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	var spans []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans = append(spans, e.Cat+" "+e.Name)
		}
	}
	if want := []string{"root " + s.cli, "phase p"}; !slices.Equal(spans, want) {
		t.Errorf("trace file spans = %q, want %q", spans, want)
	}
}

// TestCloseReportsTraceError: a Close that cannot write its sinks must
// say so — and keep saying so on the double-close path rather than
// reporting success the second time.
func TestCloseReportsTraceError(t *testing.T) {
	s := open(t, "-tracefile", filepath.Join(t.TempDir(), "missing-dir", "trace.json"))
	if err := s.Close(); err == nil {
		t.Fatal("Close must surface the tracefile create error")
	}
	if err := s.Close(); err == nil {
		t.Fatal("second Close must report the same failure, not success")
	}
}

// TestRegisterFlagSurface pins the shared flag set: adding or dropping
// an observability flag is a deliberate change to every CLI.
func TestRegisterFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"debug", "ledger", "log", "logfile", "memprofile", "metrics", "otlpfile", "progress", "tracefile"}
	if !slices.Equal(got, want) {
		t.Errorf("registered flags = %v, want %v", got, want)
	}
}

// TestRecordRunLogsCircuit: RecordRun puts one info line per circuit in
// the session log — circuit, structural hash and the headline scalars —
// with or without -ledger.
func TestRecordRunLogsCircuit(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "run.log")
	s := open(t, "-logfile", logPath)
	s.RecordRun("s27", 0xabc, nil, map[string]float64{"faults": 32, "coverage": 100})
	s.RecordRun("s298", 0xdef, nil, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(log), "\n") {
		if strings.Contains(l, `"msg":"circuit recorded"`) {
			lines = append(lines, l)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("session log has %d lines, want one per circuit:\n%s", len(lines), log)
	}
	for i, want := range [][]string{
		{`"run_id":"` + s.RunID() + `"`, `"circuit":"s27"`,
			`"hash":"0000000000000abc"`, `"coverage":100`, `"faults":32`},
		{`"circuit":"s298"`, `"hash":"0000000000000def"`},
	} {
		for _, w := range want {
			if !strings.Contains(lines[i], w) {
				t.Errorf("log line %d lacks %s:\n%s", i, w, lines[i])
			}
		}
	}
}

// TestFailAfterOpenAppendsLedger: a CLI that fails after Open (say, its
// -metrics JSON does not encode) still closes the session on the way
// out, so the run's ledger record lands with exit 1. Fail ends the
// process, so the test re-runs itself as a child that fails.
func TestFailAfterOpenAppendsLedger(t *testing.T) {
	const childEnv = "OBSFLAGS_FAIL_LEDGER"
	if path := os.Getenv(childEnv); path != "" {
		fs := flag.NewFlagSet("child", flag.ContinueOnError)
		f := Register(fs)
		if err := fs.Parse([]string{"-ledger", path}); err != nil {
			t.Fatal(err)
		}
		s, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		s.Fail(errors.New("encode failed"))
		return
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailAfterOpenAppendsLedger$")
	cmd.Env = append(os.Environ(), childEnv+"="+path)
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("child exited with %v, want status 1:\n%s", err, out)
	}
	if !strings.Contains(string(out), ": encode failed") {
		t.Errorf("child stderr lacks the failure:\n%s", out)
	}
	recs, err := ledger.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Exit != 1 {
		t.Fatalf("ledger holds %+v, want one record with exit 1", recs)
	}
}

func TestLedgerFlagActivatesCollector(t *testing.T) {
	s := open(t, "-ledger", filepath.Join(t.TempDir(), "runs.jsonl"))
	if col := s.Collector(); !col.Enabled() {
		t.Fatal("-ledger must yield an enabled collector (records carry metrics)")
	}
	var none Flags
	if none.Active() {
		t.Fatal("zero flags must stay inactive")
	}
}

// TestLedgerFlushOnClose: RecordRun queues records, Close completes and
// appends them exactly once (double Close must not duplicate), and the
// exit status set before Close lands in every record.
func TestLedgerFlushOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	s := open(t, "-ledger", path, "-metrics")
	col := s.Collector()
	col.Counter("screen.easy").Add(5)
	s.RecordRun("s27", 0xabc, col.Snapshot(), map[string]float64{"coverage": 98.5})
	s.RecordRun("s1423", 0xdef, col.Snapshot(), nil)
	s.setExit(1)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	recs, err := ledger.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("ledger holds %d records, want 2 (double Close must not re-append)", len(recs))
	}
	r := recs[0]
	if r.Schema != ledger.Schema || r.Circuit != "s27" || r.Hash != ledger.HashString(0xabc) {
		t.Fatalf("record identity wrong: %+v", r)
	}
	if r.CLI == "" || r.Time.IsZero() || r.WallNS <= 0 {
		t.Fatalf("session fields not filled: %+v", r)
	}
	if r.Exit != 1 || recs[1].Exit != 1 {
		t.Fatalf("exit status not stamped: %+v", recs)
	}
	if r.Metrics["counters.screen.easy"] != 5 || r.Metrics["coverage"] != 98.5 {
		t.Fatalf("metrics/extras not flattened into the record: %v", r.Metrics)
	}
	if r.Flags["ledger"] != path || r.Flags["metrics"] != "true" {
		t.Fatalf("explicitly-set flags not recorded: %v", r.Flags)
	}
}

// TestLedgerBareRecordOnEmptyRun: a -ledger run that dies before any
// circuit completes still appends one circuit-less record — the SIGINT
// partial-run guarantee.
func TestLedgerBareRecordOnEmptyRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	s := open(t, "-ledger", path)
	s.setExit(1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Circuit != "" || recs[0].Exit != 1 {
		t.Fatalf("bare run record wrong: %+v", recs)
	}
}

// TestMemProfileWrittenOnClose: -memprofile must leave a parseable
// (non-empty, gzip-framed) heap profile after Close, must not count as
// instrumentation (Active stays false — a profile wants the
// uninstrumented allocation picture), and must survive double Close
// without rewriting the file.
func TestMemProfileWrittenOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.pprof")
	s := open(t, "-memprofile", path)
	if s.flags.Active() {
		t.Fatal("-memprofile alone must not activate instrumentation")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("heap profile missing gzip framing (%d bytes)", len(data))
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("second Close must not rewrite the heap profile")
	}
}

// TestMemProfileCreateError: an unwritable -memprofile path must
// surface from Close like the tracefile error does.
func TestMemProfileCreateError(t *testing.T) {
	s := open(t, "-memprofile", filepath.Join(t.TempDir(), "no-dir", "heap.pprof"))
	if err := s.Close(); err == nil {
		t.Fatal("Close must surface the memprofile create error")
	}
}

// TestRecordRunWithoutLedgerIsFree: commands call RecordRun
// unconditionally; without -ledger it must do nothing (and a nil
// snapshot must not panic).
func TestRecordRunWithoutLedgerIsFree(t *testing.T) {
	s := open(t)
	var nilSnap *obs.Metrics
	s.RecordRun("s27", 1, nilSnap, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, "-ledger", filepath.Join(t.TempDir(), "l.jsonl"))
	s2.RecordRun("s27", 1, nil, nil) // no metrics at all: record survives
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.Read(s2.flags.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Circuit != "s27" || recs[0].Metrics != nil {
		t.Fatalf("metric-less record wrong: %+v", recs)
	}
}

// TestSamePathExportersRejected: -tracefile and -otlpfile share spans
// but not a format, so naming the same path must fail at Open rather
// than silently overwrite one export with the other.
func TestSamePathExportersRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-tracefile", path, "-otlpfile", dir + "/./out.json"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open(); err == nil {
		t.Fatal("Open must reject -tracefile and -otlpfile naming the same path")
	}
	if !f.Active() {
		t.Fatal("-otlpfile must count as instrumentation")
	}
}

// TestOTLPFileWrittenOnClose: -otlpfile must leave a parseable
// OTLP/JSON span tree after Close whose resource attributes carry the
// run identity, including the circuit and structural hash captured by
// RecordRun even without -ledger, and the recorder's drop count.
func TestOTLPFileWrittenOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	s := open(t, "-otlpfile", path)
	if s.Recorder() == nil {
		t.Fatal("-otlpfile must attach a flight recorder")
	}
	s.Collector().Phase("faultsim.seq").End()
	s.RecordRun("s27", 0xabc, nil, nil)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr, err := trace.ReadOTLP(w)
	if err != nil {
		t.Fatalf("ReadOTLP: %v", err)
	}
	if tr.Ctx.Trace != s.tctx.Trace {
		t.Fatalf("exported trace %s, want session trace %s", tr.Ctx.Trace, s.tctx.Trace)
	}
	if len(tr.Spans) < 2 || tr.Spans[0].Kind != trace.SpanRoot {
		t.Fatalf("span tree wrong: %+v", tr.Spans)
	}
	attrs := map[string]string{}
	for _, a := range tr.Resource {
		attrs[a.Key] = a.Value
	}
	for _, want := range []struct{ k, v string }{
		{"circuit", "s27"}, {"structural_hash", "0000000000000abc"},
		{"journal.dropped_events", "0"},
	} {
		if attrs[want.k] != want.v {
			t.Errorf("resource %s = %q, want %q", want.k, attrs[want.k], want.v)
		}
	}
	if attrs["run_id"] == "" || attrs["cli"] == "" {
		t.Errorf("resource run identity missing: %v", attrs)
	}
}

// TestTraceparentEnvJoinsCallerTrace: a valid TRACEPARENT in the
// environment makes the session's root span a child of the caller's
// span; a malformed one roots a fresh trace instead of failing Open.
func TestTraceparentEnvJoinsCallerTrace(t *testing.T) {
	t.Setenv("TRACEPARENT", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	s := open(t)
	if got := s.tctx.Trace.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("session trace = %s, want the caller's", got)
	}
	tr := s.Trace()
	if got := tr.Parent.String(); got != "00f067aa0ba902b7" {
		t.Fatalf("root span parent = %s, want the caller's span", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	t.Setenv("TRACEPARENT", "not-a-traceparent")
	s2 := open(t)
	if s2.tctx.Trace.IsZero() || s2.tctx.Trace == s.tctx.Trace {
		t.Fatal("malformed TRACEPARENT must root a fresh trace")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
