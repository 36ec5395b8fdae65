package journal

// Chrome trace-event export: the journal's timeline serialized in the
// trace-event JSON format (the "JSON Object Format" with a traceEvents
// array), loadable directly by chrome://tracing and by Perfetto's
// legacy-trace importer.
//
// Mapping:
//
//   - phase spans (KindPhaseEnd, which carries start+duration) become
//     complete ("X") events on the flow thread (tid 0);
//   - task run spans (KindUnitEnd) become "X" events named "unit" on
//     the flow thread under the "unit" category, framing the run's
//     phases;
//   - worker batch spans become "X" events on the worker's own thread
//     (tid = worker+1), named after their pool;
//   - ATPG attempt spans become "X" events on the flow thread under
//     their engine prefix;
//   - everything else (phase and unit begins for never-closed spans,
//     axis, classify, detect, cache, note) becomes thread-scoped
//     instant ("i") events.
//
// Timestamps are microseconds from the recorder origin, as the format
// requires.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// TraceProcessName is the process name metadata emitted into traces.
const TraceProcessName = "fsct"

// WriteTrace serializes events (as returned by Recorder.Snapshot) in
// Chrome trace-event format. dropped, when non-zero, is recorded as an
// instant event at the end of the timeline so a truncated journal is
// visible in the viewer.
func WriteTrace(w io.Writer, events []Event, dropped int64) error {
	bw := bufio.NewWriter(w)
	tw := traceWriter{w: bw}
	tw.open()

	// Process/thread naming metadata. Worker thread IDs are emitted
	// lazily as they appear; collect them first so metadata precedes
	// the samples.
	tw.meta(`"process_name"`, 0, fmt.Sprintf(`{"name":%q}`, TraceProcessName))
	tw.meta(`"thread_name"`, 0, `{"name":"flow"}`)
	seen := map[int32]bool{}
	for _, e := range events {
		if e.Kind == KindBatch && !seen[e.Worker] {
			seen[e.Worker] = true
			tw.meta(`"thread_name"`, int(e.Worker)+1,
				fmt.Sprintf(`{"name":"worker %d"}`, e.Worker))
		}
	}

	endNS := int64(0)
	closed := map[string]int{} // phase name -> KindPhaseEnd count
	closedUnits := 0           // KindUnitEnd count
	for _, e := range events {
		if e.Kind == KindPhaseEnd {
			closed[e.Arg]++
		}
		if e.Kind == KindUnitEnd {
			closedUnits++
		}
		if t := e.TNS + e.DurNS; t > endNS {
			endNS = t
		}
	}
	for _, e := range events {
		switch e.Kind {
		case KindPhaseEnd:
			tw.complete(e.Arg, "phase", 0, e.TNS, e.DurNS, "")
		case KindPhaseBegin:
			// Closed phases are drawn by their end event; a begin with no
			// matching end (interrupted run) shows as an instant marker.
			if closed[e.Arg] > 0 {
				closed[e.Arg]--
				continue
			}
			tw.instant(e.Arg+" (unclosed)", "phase", 0, e.TNS, "")
		case KindUnitEnd:
			args := fmt.Sprintf(`{"faults":%d,"hits":%d}`, e.D, e.A)
			tw.complete("unit", "unit", 0, e.TNS, e.DurNS, args)
		case KindUnitBegin:
			// Closed units are drawn by their end event; a begin with no
			// matching end (interrupted run) shows as an instant marker.
			if closedUnits > 0 {
				closedUnits--
				continue
			}
			tw.instant("unit (unclosed)", "unit", 0, e.TNS, "")
		case KindAxis:
			tw.instant("axis", "unit", 0, e.TNS, fmt.Sprintf(`{"faults":%d}`, e.D))
		case KindBatch:
			args := fmt.Sprintf(`{"index":%d,"total":%d}`, e.A, e.B)
			tw.complete(e.Arg, "pool", int(e.Worker)+1, e.TNS, e.DurNS, args)
		case KindATPG:
			args := fmt.Sprintf(`{"fault":%d,"status":%d,"backtracks":%d}`, e.A, e.B, e.C)
			tw.complete(e.Arg, "atpg", 0, e.TNS, e.DurNS, args)
		case KindClassify:
			chain, seg := UnpackLoc(e.C)
			args := fmt.Sprintf(`{"fault":%d,"category":%d,"chain":%d,"seg":%d,"net":%d}`,
				e.A, e.B, chain, seg, e.D)
			tw.instant("classify", "screen", int(e.Worker)+1, e.TNS, args)
		case KindDetect:
			args := fmt.Sprintf(`{"fault":%d,"cycle":%d}`, e.A, e.B)
			tw.instant("detect", "faultsim", int(e.Worker)+1, e.TNS, args)
		case KindCache:
			verdict := "miss"
			if e.A != 0 {
				verdict = "hit"
			}
			tw.instant(e.Arg+" "+verdict, "cache", 0, e.TNS, "")
		default:
			tw.instant(e.Arg, "note", 0, e.TNS, "")
		}
	}
	if dropped > 0 {
		tw.instant(fmt.Sprintf("journal dropped %d events", dropped), "note", 0, endNS, "")
	}
	tw.close()
	if tw.err != nil {
		return tw.err
	}
	return bw.Flush()
}

// traceWriter emits the JSON by hand: every row has the same small
// shape, and hand-writing keeps the exporter allocation-light and the
// output stable for the golden test.
type traceWriter struct {
	w     io.Writer
	err   error
	first bool
}

func (t *traceWriter) open() {
	t.first = true
	t.printf(`{"traceEvents":[`)
}

func (t *traceWriter) close() {
	t.printf("\n],\"displayTimeUnit\":\"ms\"}\n")
}

func (t *traceWriter) printf(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

func (t *traceWriter) row(body string) {
	sep := ",\n"
	if t.first {
		sep = "\n"
		t.first = false
	}
	t.printf("%s%s", sep, body)
}

// usec renders a nanosecond offset as microseconds with sub-μs decimals
// preserved (the format's ts/dur unit).
func usec(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64)
}

func (t *traceWriter) meta(name string, tid int, args string) {
	t.row(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":%s,"args":%s}`, tid, name, args))
}

func (t *traceWriter) complete(name, cat string, tid int, tns, durNS int64, args string) {
	if args == "" {
		args = "{}"
	}
	t.row(fmt.Sprintf(`{"ph":"X","pid":1,"tid":%d,"name":%q,"cat":%q,"ts":%s,"dur":%s,"args":%s}`,
		tid, name, cat, usec(tns), usec(durNS), args))
}

func (t *traceWriter) instant(name, cat string, tid int, tns int64, args string) {
	if args == "" {
		args = "{}"
	}
	t.row(fmt.Sprintf(`{"ph":"i","pid":1,"tid":%d,"name":%q,"cat":%q,"ts":%s,"s":"t","args":%s}`,
		tid, name, cat, usec(tns), args))
}
