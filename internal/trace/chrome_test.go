package trace_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/trace"
)

// traceFile mirrors the Chrome trace-event JSON Object Format for
// validation: a traceEvents array of maps plus displayTimeUnit.
type traceFile struct {
	TraceEvents     []map[string]any `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

// testCtx is a fixed trace context, so assembled span IDs are stable.
var testCtx = trace.Context{
	Trace: trace.TraceID{0: 0x4b, 15: 0x36},
	Span:  trace.SpanID{0: 0x0f, 7: 0xb7},
	Flags: trace.FlagSampled,
}

// assemble builds the trace both writers encode from events: the tree
// Assemble returns (ending at the latest event), with dropped recorded
// as the resource's journal.dropped_events.
func assemble(events []journal.Event, dropped int64) trace.Trace {
	return trace.Trace{
		Ctx:      testCtx,
		Resource: []trace.Attr{{Key: "journal.dropped_events", Value: strconv.FormatInt(dropped, 10)}},
		Spans:    trace.Assemble(testCtx, trace.SpanID{}, "fsctest", events, 0),
	}
}

// writeChrome encodes tr and events as Chrome trace events or fails the
// test.
func writeChrome(t *testing.T, tr trace.Trace, events []journal.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fixedEvents is a hand-stamped timeline (the writers read TNS/DurNS
// from the events, so constructing them directly gives a deterministic
// trace).
func fixedEvents() []journal.Event {
	fk := journal.NewFaultKey(42, -1, -1, 1)
	return []journal.Event{
		{Kind: journal.KindPhaseBegin, Arg: "screen", TNS: 1000},
		{Kind: journal.KindCache, Arg: "engine", A: 0, TNS: 1500},
		{Kind: journal.KindBatch, Arg: "screen", Worker: 0, A: 0, B: 2, TNS: 2000, DurNS: 500_000},
		{Kind: journal.KindBatch, Arg: "screen", Worker: 1, A: 1, B: 2, TNS: 2500, DurNS: 400_000},
		{Kind: journal.KindClassify, A: int64(fk), B: 2, C: journal.LocChainSeg(0, 3), D: 7, Worker: 1, TNS: 300_000},
		{Kind: journal.KindPhaseEnd, Arg: "screen", TNS: 1000, DurNS: 600_000},
		{Kind: journal.KindATPG, Arg: "atpg.comb", A: int64(fk), B: 0, C: 12, TNS: 700_000, DurNS: 90_000},
		{Kind: journal.KindDetect, A: int64(fk), B: 17, Worker: 0, TNS: 900_000},
		{Kind: journal.KindPhaseBegin, Arg: "step2", TNS: 950_000}, // interrupted: never closed
		{Kind: journal.KindNote, Arg: "cancelled", TNS: 980_000},
	}
}

// cancelTimeline is two runs sharing one journal (a CLI over two
// circuits), the second canceled inside a nested phase: its unit and
// its outer phase never close.
func cancelTimeline() []journal.Event {
	return []journal.Event{
		{Kind: journal.KindUnitBegin, TNS: 1000},
		{Kind: journal.KindAxis, D: 63, TNS: 1500},
		{Kind: journal.KindPhaseBegin, Arg: "faultsim.seq", TNS: 2000},
		{Kind: journal.KindPhaseEnd, Arg: "faultsim.seq", TNS: 2000, DurNS: 400_000},
		{Kind: journal.KindUnitEnd, A: 40, B: 1, D: 63, TNS: 1000, DurNS: 500_000},
		{Kind: journal.KindUnitBegin, TNS: 600_000},
		{Kind: journal.KindPhaseBegin, Arg: "faultsim.seq", TNS: 610_000},
		{Kind: journal.KindPhaseBegin, Arg: "faultsim.compile", TNS: 620_000},
		{Kind: journal.KindPhaseEnd, Arg: "faultsim.compile", TNS: 620_000, DurNS: 30_000},
		{Kind: journal.KindNote, Arg: "canceled", TNS: 700_000},
	}
}

// TestWriteChromeSchema validates the exported JSON against the Chrome
// trace-event schema requirements: well-formed JSON, and for every
// event the required keys (ph, pid, tid, name, ts) with ph from the
// set the exporter uses, dur present exactly on complete events, and a
// scope on instant events.
func TestWriteChromeSchema(t *testing.T) {
	events := fixedEvents()
	out := writeChrome(t, assemble(events, 3), events)
	var tf traceFile
	if err := json.Unmarshal(out, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, out)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	cats := map[string]int{}
	instants := 0
	for i, e := range tf.TraceEvents {
		ph, _ := e["ph"].(string)
		switch ph {
		case "M", "X", "i":
		default:
			t.Fatalf("event %d: ph = %q not in {M,X,i}", i, ph)
		}
		for _, key := range []string{"pid", "tid", "name"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d (%v): missing %q", i, e, key)
			}
		}
		if ph == "M" {
			continue // metadata rows carry no timestamp
		}
		ts, ok := e["ts"].(float64)
		if !ok || ts < 0 {
			t.Fatalf("event %d: bad ts %v", i, e["ts"])
		}
		switch ph {
		case "X":
			if _, ok := e["dur"].(float64); !ok {
				t.Fatalf("event %d: complete event without dur", i)
			}
			cats[e["cat"].(string)]++
		case "i":
			if s, _ := e["s"].(string); s != "t" {
				t.Fatalf("event %d: instant scope = %v", i, e["s"])
			}
			instants++
		}
	}
	// The closed phase and the interrupted one (closed at the trace end).
	want := map[string]int{"root": 1, "phase": 2, "pool": 2, "atpg": 1}
	if !reflect.DeepEqual(cats, want) {
		t.Errorf("complete rows by category = %v, want %v", cats, want)
	}
	// classify + detect + cache + note + dropped marker
	if instants != 5 {
		t.Errorf("instant events = %d, want 5", instants)
	}
	if !bytes.Contains(out, []byte("journal dropped 3 events")) {
		t.Error("dropped-events marker missing")
	}
}

// TestWriteChromeGolden pins the exact serialization of a minimal fixed
// timeline: the exporter's output is a parsing contract for scripts, so
// format changes must be deliberate.
func TestWriteChromeGolden(t *testing.T) {
	events := []journal.Event{
		{Kind: journal.KindPhaseBegin, Arg: "screen", TNS: 1000},
		{Kind: journal.KindBatch, Arg: "screen", Worker: 0, A: 0, B: 1, TNS: 2000, DurNS: 500_000},
		{Kind: journal.KindPhaseEnd, Arg: "screen", TNS: 1000, DurNS: 600_000},
	}
	want := `{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"fsct"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"flow"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"worker 0"}},
{"ph":"X","pid":1,"tid":0,"name":"fsctest","cat":"root","ts":0.000,"dur":601.000,"args":{}},
{"ph":"X","pid":1,"tid":0,"name":"screen","cat":"phase","ts":1.000,"dur":600.000,"args":{}},
{"ph":"X","pid":1,"tid":1,"name":"screen","cat":"pool","ts":2.000,"dur":500.000,"args":{"worker":"0","index":"0","total":"1"}}
],"displayTimeUnit":"ms"}
`
	if got := string(writeChrome(t, assemble(events, 0), events)); got != want {
		t.Errorf("trace golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteChromeCancelGolden pins the exported partial timeline of
// cancelTimeline: the first run completed (its axis announced as an
// instant, its nested phase closed), the second was interrupted inside
// a nested phase — its unit and outer phase never closed and are drawn
// as complete rows ending at the trace end with unclosed set, while the
// inner phase that did close renders as itself. The exact bytes are
// pinned because operators diff partial traces from interrupted runs.
func TestWriteChromeCancelGolden(t *testing.T) {
	events := cancelTimeline()
	want := `{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"fsct"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"flow"}},
{"ph":"X","pid":1,"tid":0,"name":"fsctest","cat":"root","ts":0.000,"dur":700.000,"args":{}},
{"ph":"X","pid":1,"tid":0,"name":"unit","cat":"unit","ts":1.000,"dur":500.000,"args":{"faults":"63","hits":"40"}},
{"ph":"X","pid":1,"tid":0,"name":"faultsim.seq","cat":"phase","ts":2.000,"dur":400.000,"args":{}},
{"ph":"X","pid":1,"tid":0,"name":"unit","cat":"unit","ts":600.000,"dur":100.000,"args":{"unclosed":"true"}},
{"ph":"X","pid":1,"tid":0,"name":"faultsim.seq","cat":"phase","ts":610.000,"dur":90.000,"args":{"unclosed":"true"}},
{"ph":"X","pid":1,"tid":0,"name":"faultsim.compile","cat":"phase","ts":620.000,"dur":30.000,"args":{}},
{"ph":"i","pid":1,"tid":0,"name":"axis","cat":"unit","ts":1.500,"s":"t","args":{"faults":63}},
{"ph":"i","pid":1,"tid":0,"name":"canceled","cat":"note","ts":700.000,"s":"t","args":{}}
],"displayTimeUnit":"ms"}
`
	if got := string(writeChrome(t, assemble(events, 0), events)); got != want {
		t.Errorf("cancel golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteChromeEmpty: an empty journal still yields a valid trace.
func TestWriteChromeEmpty(t *testing.T) {
	var tf traceFile
	if err := json.Unmarshal(writeChrome(t, assemble(nil, 0), nil), &tf); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

// TestWriteChromeLiveRecorder: a trace exported from a recorder fed the
// normal way (Emit) is schema-valid too.
func TestWriteChromeLiveRecorder(t *testing.T) {
	r := journal.New(64)
	r.Emit(journal.PhaseBegin("p"))
	r.Emit(journal.Batch("pool", 2, 0, 4, 100*time.Microsecond))
	r.Emit(journal.PhaseEnd("p", time.Millisecond))
	tr := trace.FromRecorder(r, testCtx, trace.SpanID{}, "cli", -1, 0)
	var tf traceFile
	if err := json.Unmarshal(writeChrome(t, tr, r.Snapshot()), &tf); err != nil {
		t.Fatalf("live trace invalid: %v", err)
	}
	// 3 metadata rows (process, flow thread, worker 2 thread) + the
	// root, phase and batch spans.
	if len(tf.TraceEvents) != 6 {
		t.Errorf("got %d rows, want 6", len(tf.TraceEvents))
	}
}

// chromeSpan is the part of a span both encodings carry, read back
// from a Chrome X row or taken from an assembled span.
type chromeSpan struct {
	Name, Kind     string
	StartNS, DurNS int64
	Worker         int // -1 off the worker threads
	Attrs          map[string]string
	Unclosed       bool
}

// chromeSpans reads the complete rows of a Chrome trace in file order.
func chromeSpans(t *testing.T, out []byte) []chromeSpan {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Ph, Name, Cat string
			Tid           int
			Ts, Dur       float64
			Args          map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var got []chromeSpan
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		cs := chromeSpan{
			Name: e.Name, Kind: e.Cat, Worker: e.Tid - 1,
			StartNS: int64(e.Ts*1e3 + 0.5), DurNS: int64(e.Dur*1e3 + 0.5),
			Attrs: map[string]string{},
		}
		for k, v := range e.Args {
			s, ok := v.(string)
			if !ok {
				t.Fatalf("row %q: arg %s = %v is not a string attribute", e.Name, k, v)
			}
			if k == "unclosed" {
				cs.Unclosed = s == "true"
				continue
			}
			cs.Attrs[k] = s
		}
		got = append(got, cs)
	}
	return got
}

// assembledSpans is Assemble's side of the comparison.
func assembledSpans(spans []trace.Span) []chromeSpan {
	var want []chromeSpan
	for _, sp := range spans {
		cs := chromeSpan{
			Name: sp.Name, Kind: sp.Kind, StartNS: sp.StartNS, DurNS: sp.DurNS(),
			Worker: -1, Attrs: map[string]string{}, Unclosed: sp.Unclosed,
		}
		for _, a := range sp.Attrs {
			cs.Attrs[a.Key] = a.Value
		}
		if sp.Kind == trace.SpanPool {
			cs.Worker, _ = strconv.Atoi(cs.Attrs["worker"])
		}
		want = append(want, cs)
	}
	return want
}

// TestWriteChromeMatchesAssemble: the Chrome file's complete rows are
// exactly Assemble's spans — name, kind, start, duration, worker,
// attributes and unclosed — for an interrupted two-run timeline and
// for the journal of a real s27 flow run through the task layer. An
// interrupted run's open unit and phase are complete rows that end at
// the trace end.
func TestWriteChromeMatchesAssemble(t *testing.T) {
	col := obs.New()
	rec := journal.New(0)
	col.SetJournal(rec)
	if _, err := task.Run(context.Background(), task.Spec{Kind: task.KindFlow, Circuit: "s27"}, nil, col); err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name     string
		events   []journal.Event
		unclosed int // the open unit and phase of an interrupted run
	}{
		{"canceled two-run timeline", cancelTimeline(), 2},
		{"s27 flow", rec.Snapshot(), 0},
	} {
		tr := assemble(in.events, 0)
		got := chromeSpans(t, writeChrome(t, tr, in.events))
		want := assembledSpans(tr.Spans)
		if len(want) < 3 {
			t.Fatalf("%s: only %d spans assembled", in.name, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Chrome rows differ from the assembled spans:\n got %+v\nwant %+v", in.name, got, want)
		}
		unclosed := 0
		for _, cs := range got {
			if cs.Unclosed {
				unclosed++
				if end := cs.StartNS + cs.DurNS; end != tr.Spans[0].EndNS {
					t.Errorf("%s: unclosed %s %q ends at %d, want the trace end %d", in.name, cs.Kind, cs.Name, end, tr.Spans[0].EndNS)
				}
			}
		}
		if unclosed != in.unclosed {
			t.Errorf("%s: %d unclosed spans, want %d", in.name, unclosed, in.unclosed)
		}
	}
}
