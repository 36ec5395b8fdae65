// Chrome trace-event export: the same span tree WriteOTLP encodes,
// serialized in the trace-event JSON format (the "JSON Object Format"
// with a traceEvents array), loadable directly by chrome://tracing and
// by Perfetto's legacy-trace importer.
//
// Mapping:
//
//   - every assembled span, the root included, becomes one complete
//     ("X") row: cat is the span kind, tid is worker+1 for worker-pool
//     items and 0 (the flow thread) for everything else, and args are
//     the span's attributes plus unclosed for a span closed at the
//     trace end;
//   - the journal events that are not spans (axis, classify, detect,
//     cache, note) become thread-scoped instant ("i") rows;
//   - a truncated journal adds one "journal dropped N events" instant
//     at the trace end.
//
// Timestamps are microseconds from the trace origin, as the format
// requires.

package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/journal"
)

// serviceName names the process in both encodings: the OTLP
// service.name resource attribute and the Chrome process_name row.
const serviceName = "fsct"

// WriteChrome serializes tr's spans (as Assemble built them) and the
// instant events among events (the journal tr was assembled from) in
// Chrome trace-event format. The dropped-events marker reads tr's
// journal.dropped_events resource attribute.
func WriteChrome(w io.Writer, tr Trace, events []journal.Event) error {
	bw := bufio.NewWriter(w)
	cw := chromeWriter{w: bw, first: true}
	cw.printf(`{"traceEvents":[`)

	// Process and thread naming metadata precede the samples; worker
	// threads are named in order of their first pool item.
	cw.row(fmt.Sprintf(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":%q}}`, serviceName))
	cw.row(`{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"flow"}}`)
	seen := map[int]bool{}
	for _, sp := range tr.Spans {
		if tid := spanTID(sp); tid > 0 && !seen[tid] {
			seen[tid] = true
			cw.row(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":"worker %d"}}`, tid, tid-1))
		}
	}

	var args strings.Builder
	for _, sp := range tr.Spans {
		args.Reset()
		for _, a := range sp.Attrs {
			fmt.Fprintf(&args, ",%q:%q", a.Key, a.Value)
		}
		if sp.Unclosed {
			args.WriteString(`,"unclosed":"true"`)
		}
		cw.row(fmt.Sprintf(`{"ph":"X","pid":1,"tid":%d,"name":%q,"cat":%q,"ts":%s,"dur":%s,"args":{%s}}`,
			spanTID(sp), sp.Name, sp.Kind, usec(sp.StartNS), usec(sp.DurNS()), strings.TrimPrefix(args.String(), ",")))
	}

	for _, e := range events {
		switch e.Kind {
		case journal.KindPhaseBegin, journal.KindPhaseEnd, journal.KindUnitBegin,
			journal.KindUnitEnd, journal.KindBatch, journal.KindATPG:
			// Assembled into spans above.
		case journal.KindAxis:
			cw.instant("axis", "unit", 0, e.TNS, fmt.Sprintf(`{"faults":%d}`, e.D))
		case journal.KindClassify:
			chain, seg := journal.UnpackLoc(e.C)
			cw.instant("classify", "screen", int(e.Worker)+1, e.TNS,
				fmt.Sprintf(`{"fault":%d,"category":%d,"chain":%d,"seg":%d,"net":%d}`, e.A, e.B, chain, seg, e.D))
		case journal.KindDetect:
			cw.instant("detect", "faultsim", int(e.Worker)+1, e.TNS, fmt.Sprintf(`{"fault":%d,"cycle":%d}`, e.A, e.B))
		case journal.KindCache:
			verdict := "miss"
			if e.A != 0 {
				verdict = "hit"
			}
			cw.instant(e.Arg+" "+verdict, "cache", 0, e.TNS, "{}")
		default:
			cw.instant(e.Arg, "note", 0, e.TNS, "{}")
		}
	}
	if dropped := resourceInt(tr, "journal.dropped_events"); dropped > 0 && len(tr.Spans) > 0 {
		cw.instant(fmt.Sprintf("journal dropped %d events", dropped), "note", 0, tr.Spans[0].EndNS, "{}")
	}
	cw.printf("\n],\"displayTimeUnit\":\"ms\"}\n")
	if cw.err != nil {
		return cw.err
	}
	return bw.Flush()
}

// spanTID is the Chrome thread a span is drawn on: worker+1 for a
// worker-pool item, 0 (the flow thread) otherwise.
func spanTID(sp Span) int {
	if sp.Kind != SpanPool {
		return 0
	}
	for _, a := range sp.Attrs {
		if a.Key == "worker" {
			w, _ := strconv.Atoi(a.Value)
			return w + 1
		}
	}
	return 0
}

// resourceInt reads an integer resource attribute of tr (0 when absent).
func resourceInt(tr Trace, key string) int64 {
	for _, a := range tr.Resource {
		if a.Key == key {
			n, _ := strconv.ParseInt(a.Value, 10, 64)
			return n
		}
	}
	return 0
}

// chromeWriter emits the JSON by hand: every row has the same small
// shape, and hand-writing keeps the output stable for the golden tests.
type chromeWriter struct {
	w     io.Writer
	err   error
	first bool
}

func (c *chromeWriter) printf(format string, args ...any) {
	if c.err != nil {
		return
	}
	_, c.err = fmt.Fprintf(c.w, format, args...)
}

func (c *chromeWriter) row(body string) {
	sep := ",\n"
	if c.first {
		sep = "\n"
		c.first = false
	}
	c.printf("%s%s", sep, body)
}

func (c *chromeWriter) instant(name, cat string, tid int, tns int64, args string) {
	c.row(fmt.Sprintf(`{"ph":"i","pid":1,"tid":%d,"name":%q,"cat":%q,"ts":%s,"s":"t","args":%s}`,
		tid, name, cat, usec(tns), args))
}

// usec renders a nanosecond offset as microseconds with sub-μs decimals
// preserved (the format's ts/dur unit).
func usec(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64)
}
