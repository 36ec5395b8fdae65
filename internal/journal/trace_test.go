package journal

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// traceFile mirrors the Chrome trace-event JSON Object Format for
// validation: a traceEvents array of maps plus displayTimeUnit.
type traceFile struct {
	TraceEvents     []map[string]any `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

// fixedEvents is a hand-stamped timeline (WriteTrace reads TNS/DurNS
// from the events, so constructing them directly gives a deterministic
// trace).
func fixedEvents() []Event {
	fk := NewFaultKey(42, -1, -1, 1)
	return []Event{
		{Kind: KindPhaseBegin, Arg: "screen", TNS: 1000},
		{Kind: KindCache, Arg: "engine", A: 0, TNS: 1500},
		{Kind: KindBatch, Arg: "screen", Worker: 0, A: 0, B: 2, TNS: 2000, DurNS: 500_000},
		{Kind: KindBatch, Arg: "screen", Worker: 1, A: 1, B: 2, TNS: 2500, DurNS: 400_000},
		{Kind: KindClassify, A: int64(fk), B: 2, C: LocChainSeg(0, 3), D: 7, Worker: 1, TNS: 300_000},
		{Kind: KindPhaseEnd, Arg: "screen", TNS: 1000, DurNS: 600_000},
		{Kind: KindATPG, Arg: "atpg.comb", A: int64(fk), B: 0, C: 12, TNS: 700_000, DurNS: 90_000},
		{Kind: KindDetect, A: int64(fk), B: 17, Worker: 0, TNS: 900_000},
		{Kind: KindPhaseBegin, Arg: "step2", TNS: 950_000}, // interrupted: never closed
		{Kind: KindNote, Arg: "cancelled", TNS: 980_000},
	}
}

// TestWriteTraceSchema validates the exported JSON against the Chrome
// trace-event schema requirements: well-formed JSON, and for every
// event the required keys (ph, pid, tid, name, ts) with ph from the
// set the exporter uses, dur present exactly on complete events, and a
// scope on instant events.
func TestWriteTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, fixedEvents(), 3); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var phases, batches, instants int
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
			if e["cat"] == "phase" {
				phases++
			}
			if e["cat"] == "pool" {
				batches++
			}
		case "i":
			if s, _ := e["s"].(string); s != "t" {
				t.Fatalf("event %d: instant scope = %v", i, e["s"])
			}
			instants++
		}
	}
	if phases != 1 {
		t.Errorf("phase spans = %d, want 1 (only the closed phase)", phases)
	}
	if batches != 2 {
		t.Errorf("batch spans = %d, want 2", batches)
	}
	// classify + detect + cache + note + unclosed-phase marker + dropped marker
	if instants != 6 {
		t.Errorf("instant events = %d, want 6", instants)
	}
	if !strings.Contains(buf.String(), "journal dropped 3 events") {
		t.Error("dropped-events marker missing")
	}
}

// TestWriteTraceGolden pins the exact serialization of a minimal fixed
// timeline: the exporter's output is a parsing contract for scripts, so
// format changes must be deliberate.
func TestWriteTraceGolden(t *testing.T) {
	events := []Event{
		{Kind: KindPhaseBegin, Arg: "screen", TNS: 1000},
		{Kind: KindBatch, Arg: "screen", Worker: 0, A: 0, B: 1, TNS: 2000, DurNS: 500_000},
		{Kind: KindPhaseEnd, Arg: "screen", TNS: 1000, DurNS: 600_000},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events, 0); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"fsct"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"flow"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"worker 0"}},
{"ph":"X","pid":1,"tid":1,"name":"screen","cat":"pool","ts":2.000,"dur":500.000,"args":{"index":0,"total":1}},
{"ph":"X","pid":1,"tid":0,"name":"screen","cat":"phase","ts":1.000,"dur":600.000,"args":{}}
],"displayTimeUnit":"ms"}
`
	if got := buf.String(); got != want {
		t.Errorf("trace golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteTraceCancelGolden pins the exported partial timeline of two
// runs sharing one journal (a CLI over two circuits), the second
// canceled mid-flow: the first run completed (its axis announced as an
// instant, its nested phase closed and drawn as a span), the second
// was interrupted inside a nested phase — the run and its outer phase
// never closed and must surface as "(unclosed)" instant markers while
// the inner phase that did close still renders as a span. The exact
// bytes are pinned because operators diff partial traces from
// interrupted runs.
func TestWriteTraceCancelGolden(t *testing.T) {
	events := []Event{
		{Kind: KindUnitBegin, TNS: 1000},
		{Kind: KindAxis, D: 63, TNS: 1500},
		{Kind: KindPhaseBegin, Arg: "faultsim.seq", TNS: 2000},
		{Kind: KindPhaseEnd, Arg: "faultsim.seq", TNS: 2000, DurNS: 400_000},
		{Kind: KindUnitEnd, A: 40, B: 1, D: 63, TNS: 1000, DurNS: 500_000},
		{Kind: KindUnitBegin, TNS: 600_000},
		{Kind: KindPhaseBegin, Arg: "faultsim.seq", TNS: 610_000},
		{Kind: KindPhaseBegin, Arg: "faultsim.compile", TNS: 620_000},
		{Kind: KindPhaseEnd, Arg: "faultsim.compile", TNS: 620_000, DurNS: 30_000},
		{Kind: KindNote, Arg: "canceled", TNS: 700_000},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events, 0); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"fsct"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"flow"}},
{"ph":"i","pid":1,"tid":0,"name":"axis","cat":"unit","ts":1.500,"s":"t","args":{"faults":63}},
{"ph":"X","pid":1,"tid":0,"name":"faultsim.seq","cat":"phase","ts":2.000,"dur":400.000,"args":{}},
{"ph":"X","pid":1,"tid":0,"name":"unit","cat":"unit","ts":1.000,"dur":500.000,"args":{"faults":63,"hits":40}},
{"ph":"i","pid":1,"tid":0,"name":"unit (unclosed)","cat":"unit","ts":600.000,"s":"t","args":{}},
{"ph":"i","pid":1,"tid":0,"name":"faultsim.seq (unclosed)","cat":"phase","ts":610.000,"s":"t","args":{}},
{"ph":"X","pid":1,"tid":0,"name":"faultsim.compile","cat":"phase","ts":620.000,"dur":30.000,"args":{}},
{"ph":"i","pid":1,"tid":0,"name":"canceled","cat":"note","ts":700.000,"s":"t","args":{}}
],"displayTimeUnit":"ms"}
`
	if got := buf.String(); got != want {
		t.Errorf("cancel golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteTraceEmpty: an empty journal still yields a valid trace.
func TestWriteTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil, 0); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

// TestWriteTraceLiveRecorder: a trace exported from a recorder fed the
// normal way (Emit) is schema-valid too.
func TestWriteTraceLiveRecorder(t *testing.T) {
	r := New(64)
	r.Emit(PhaseBegin("p"))
	r.Emit(Batch("pool", 2, 0, 4, 100*time.Microsecond))
	r.Emit(PhaseEnd("p", time.Millisecond))
	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Snapshot(), r.Dropped()); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("live trace invalid: %v", err)
	}
	// 3 metadata rows (process, flow thread, worker 2 thread) + 1 batch
	// span + 1 phase span.
	if len(tf.TraceEvents) != 5 {
		t.Errorf("got %d rows, want 5", len(tf.TraceEvents))
	}
}
