// Package trace gives runs a distributed identity: W3C trace-context
// (traceparent) encoding and parsing, and the upgrade path from the
// journal's span-shaped events to real spans with parent linkage.
//
// The model is deliberately small. A Context names one position in a
// distributed trace (128-bit trace ID, 64-bit span ID, sampling
// flags) and travels as the `traceparent` header of the W3C Trace
// Context specification — inbound on fsctd job submissions and in the
// CLIs' TRACEPARENT environment, so a run joins its caller's trace.
// Assemble replays a journal event buffer into a span tree
// under such a context: one root span per CLI invocation or daemon
// job, a child span per task unit, nested phase spans, and
// leaf spans for worker-pool items and ATPG attempts. Two writers
// encode that one tree: otlp.go in the OpenTelemetry OTLP/JSON shape
// (without importing any OpenTelemetry code) and chrome.go as Chrome
// trace events, so both files show the same spans with the same
// attributes. The analysis helpers (critpath.go) answer the operator
// questions — critical path, self time, stragglers — that motivate
// tracing in the first place.
//
// Everything here is offline: spans are assembled from the journal
// after (or during) a run, never allocated on hot paths, so the
// tracing layer adds zero cost to execution beyond the journal
// events the flow already emits.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
)

// TraceID is a 128-bit trace identity shared by every span of one
// distributed trace. The all-zero value is invalid per the W3C spec.
type TraceID [16]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the trace ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is a 64-bit span identity, unique within its trace. The
// all-zero value is invalid as an identity and doubles as "no parent"
// in parent-linkage fields.
type SpanID [8]byte

// IsZero reports whether the span ID is the all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the span ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// FlagSampled is the trace-flags bit indicating the caller recorded
// this trace; contexts minted here always set it.
const FlagSampled = 0x01

// Context is one position in a distributed trace: the trace it
// belongs to, the span that owns the current operation, and the W3C
// trace flags. The zero Context is "no trace" (Valid reports false).
type Context struct {
	Trace TraceID
	Span  SpanID
	Flags byte
}

// Valid reports whether the context carries a usable identity: a
// nonzero trace ID and a nonzero span ID.
func (c Context) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// Traceparent renders the context as a W3C traceparent header value,
// version 00: "00-<32 hex trace>-<16 hex span>-<2 hex flags>".
func (c Context) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", c.Trace, c.Span, c.Flags)
}

// NewContext mints a fresh root context — random trace and span IDs,
// sampled — for a run that was not handed an inbound traceparent.
func NewContext() Context {
	var c Context
	mustRand(c.Trace[:])
	mustRand(c.Span[:])
	c.Flags = FlagSampled
	return c
}

// Child is a run's join-or-mint step: a context under c (same trace,
// fresh span, c's flags plus FlagSampled), or a fresh root when c is
// invalid — the zero Context of a failed parse included.
func (c Context) Child() Context {
	if !c.Valid() {
		return NewContext()
	}
	return Context{Trace: c.Trace, Span: NewSpanID(), Flags: c.Flags | FlagSampled}
}

// NewSpanID mints a fresh random span ID, used when a run joins an
// existing trace and needs its own span under the inbound parent.
func NewSpanID() SpanID {
	var s SpanID
	mustRand(s[:])
	return s
}

// mustRand fills b from crypto/rand, retrying the (theoretical)
// all-zero draw; rand.Read never fails on supported platforms.
func mustRand(b []byte) {
	for {
		if _, err := rand.Read(b); err != nil {
			panic("trace: crypto/rand failed: " + err.Error())
		}
		for _, v := range b {
			if v != 0 {
				return
			}
		}
	}
}

// Parse decodes a W3C traceparent header value. It accepts version 00
// exactly and tolerates higher versions (per the spec's forward-
// compatibility rule) by reading the leading version-00 fields;
// version ff, malformed hex, wrong field lengths and all-zero trace
// or span IDs are errors. Callers on lenient paths (inbound HTTP
// headers) should ignore the error and proceed untraced; strict paths
// (task.Spec validation) surface it.
func Parse(header string) (Context, error) {
	var c Context
	h := strings.TrimSpace(header)
	parts := strings.Split(h, "-")
	if len(parts) < 4 {
		return c, fmt.Errorf("trace: traceparent %q: want version-traceid-spanid-flags", h)
	}
	ver, err := hexByte(parts[0])
	if err != nil {
		return c, fmt.Errorf("trace: traceparent %q: bad version: %v", h, err)
	}
	if ver == 0xff {
		return c, fmt.Errorf("trace: traceparent %q: version ff is invalid", h)
	}
	if ver == 0 && len(parts) != 4 {
		return c, fmt.Errorf("trace: traceparent %q: version 00 takes exactly four fields", h)
	}
	if len(parts[1]) != 32 {
		return c, fmt.Errorf("trace: traceparent %q: trace ID must be 32 hex digits", h)
	}
	if _, err := hex.Decode(c.Trace[:], []byte(parts[1])); err != nil {
		return c, fmt.Errorf("trace: traceparent %q: bad trace ID: %v", h, err)
	}
	if len(parts[2]) != 16 {
		return c, fmt.Errorf("trace: traceparent %q: span ID must be 16 hex digits", h)
	}
	if _, err := hex.Decode(c.Span[:], []byte(parts[2])); err != nil {
		return c, fmt.Errorf("trace: traceparent %q: bad span ID: %v", h, err)
	}
	if c.Trace.IsZero() || c.Span.IsZero() {
		return c, fmt.Errorf("trace: traceparent %q: all-zero IDs are invalid", h)
	}
	if c.Flags, err = hexByte(parts[3]); err != nil {
		return c, fmt.Errorf("trace: traceparent %q: bad flags: %v", h, err)
	}
	return c, nil
}

// hexByte decodes exactly two lowercase-or-uppercase hex digits.
func hexByte(s string) (byte, error) {
	if len(s) != 2 {
		return 0, fmt.Errorf("want 2 hex digits, got %q", s)
	}
	var b [1]byte
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return 0, err
	}
	return b[0], nil
}

// Attr is one string-valued span or resource attribute.
type Attr struct {
	Key   string
	Value string
}

// Span kinds, stored in Span.Kind and exported as the fsct.kind
// attribute: the root (CLI invocation or daemon job), one task unit,
// one instrumented phase, one worker-pool item, one ATPG attempt.
const (
	SpanRoot  = "root"
	SpanUnit  = "unit"
	SpanPhase = "phase"
	SpanPool  = "pool"
	SpanATPG  = "atpg"
)

// Span is one assembled span. Start and end are nanosecond offsets
// from the trace origin (the journal recorder's clock origin), not
// wall-clock times; the OTLP writer adds the origin back in. Parent
// is zero only for a root span with no inbound context.
type Span struct {
	Name     string
	Kind     string
	ID       SpanID
	Parent   SpanID
	StartNS  int64
	EndNS    int64
	Unclosed bool // closed administratively at trace end (cancel, crash)
	Attrs    []Attr
}

// DurNS returns the span's wall time in nanoseconds.
func (s Span) DurNS() int64 { return s.EndNS - s.StartNS }

// Assemble upgrades a journal event buffer into a span tree under the
// given context: spans[0] is the root span (named rootName, ID
// ctx.Span, parented to the inbound parent when nonzero) covering
// [0, endNS]; unit begin/end events become unit spans under the root;
// phase begin/end events become nested phase spans; worker-pool items
// and ATPG attempts become leaf spans under the innermost open span,
// carrying their payload (pool item index/total and worker; ATPG
// fault key, status and backtracks) as attributes. Instant events
// (axis, notes, classifications, detections, cache lookups) carry no
// duration and are skipped. Assemble is the one place journal events
// are paired into intervals: WriteOTLP and WriteChrome both encode
// its spans.
//
// endNS is the timeline end (the recorder's elapsed offset); it is
// raised to cover the latest event if events outrun it. Spans still
// open when the buffer ends — a canceled or crashed run — are closed
// at their parent's end and marked Unclosed, so partial traces remain
// well-formed trees.
//
// Span IDs are derived deterministically from the context and the
// assembly sequence (deriveSpan), so re-assembling the same buffer
// under the same context yields identical spans.
func Assemble(ctx Context, parent SpanID, rootName string, events []journal.Event, endNS int64) []Span {
	for _, e := range events {
		if end := e.TNS + e.DurNS; end > endNS {
			endNS = end
		}
	}
	spans := make([]Span, 1, len(events)/2+1)
	spans[0] = Span{Name: rootName, Kind: SpanRoot, ID: ctx.Span, Parent: parent, EndNS: endNS}

	var seq uint64
	next := func() SpanID {
		seq++
		return deriveSpan(ctx.Trace, ctx.Span, seq)
	}
	// stack holds the indices of the open span chain; stack[0] is the
	// root. Open spans have EndNS < 0 until closed.
	stack := []int{0}
	top := func() *Span { return &spans[stack[len(stack)-1]] }
	// closeAbove closes every open span stacked above position keep at
	// offset t, marking it unclosed: its end event never arrived
	// (dropped, or the run was canceled inside it).
	closeAbove := func(keep int, t int64) {
		for len(stack) > keep+1 {
			sp := &spans[stack[len(stack)-1]]
			if sp.EndNS < 0 {
				sp.EndNS = t
				sp.Unclosed = true
			}
			stack = stack[:len(stack)-1]
		}
	}

	for _, e := range events {
		switch e.Kind {
		case journal.KindUnitBegin:
			// Units never nest; an open unit here means its end event
			// was lost. Unwind to the root before opening the next.
			closeAbove(0, e.TNS)
			spans = append(spans, Span{
				Name: SpanUnit, Kind: SpanUnit, ID: next(), Parent: spans[0].ID,
				StartNS: e.TNS, EndNS: -1,
			})
			stack = append(stack, len(spans)-1)
		case journal.KindUnitEnd:
			if k := openIndex(spans, stack, SpanUnit, SpanUnit); k >= 0 {
				end := e.TNS + e.DurNS
				closeAbove(k, end)
				sp := &spans[stack[k]]
				sp.EndNS = end
				sp.Attrs = unitAttrs(e)
				stack = stack[:k]
			} else {
				// Begin event lost: synthesize the closed unit span.
				spans = append(spans, Span{
					Name: SpanUnit, Kind: SpanUnit, ID: next(), Parent: spans[0].ID,
					StartNS: e.TNS, EndNS: e.TNS + e.DurNS, Attrs: unitAttrs(e),
				})
			}
		case journal.KindPhaseBegin:
			spans = append(spans, Span{
				Name: e.Arg, Kind: SpanPhase, ID: next(), Parent: top().ID,
				StartNS: e.TNS, EndNS: -1,
			})
			stack = append(stack, len(spans)-1)
		case journal.KindPhaseEnd:
			if k := openIndex(spans, stack, SpanPhase, e.Arg); k >= 0 {
				end := e.TNS + e.DurNS
				closeAbove(k, end)
				spans[stack[k]].EndNS = end
				stack = stack[:k]
			} else {
				// No matching open phase (begin dropped): the end event
				// carries the full span; record it closed.
				spans = append(spans, Span{
					Name: e.Arg, Kind: SpanPhase, ID: next(), Parent: top().ID,
					StartNS: e.TNS, EndNS: e.TNS + e.DurNS,
				})
			}
		case journal.KindBatch:
			spans = append(spans, Span{
				Name: e.Arg, Kind: SpanPool, ID: next(), Parent: top().ID,
				StartNS: e.TNS, EndNS: e.TNS + e.DurNS,
				Attrs: []Attr{
					{"worker", strconv.FormatInt(int64(e.Worker), 10)},
					{"index", strconv.FormatInt(e.A, 10)},
					{"total", strconv.FormatInt(e.B, 10)},
				},
			})
		case journal.KindATPG:
			spans = append(spans, Span{
				Name: e.Arg, Kind: SpanATPG, ID: next(), Parent: top().ID,
				StartNS: e.TNS, EndNS: e.TNS + e.DurNS,
				Attrs: []Attr{
					{"fault", strconv.FormatInt(e.A, 10)},
					{"status", strconv.FormatInt(e.B, 10)},
					{"backtracks", strconv.FormatInt(e.C, 10)},
				},
			})
		}
	}
	closeAbove(0, endNS)
	return spans
}

// FromRecorder builds one run's exported trace: Assemble's tree over
// rec's events under ctx, placed at rec's origin (now for a nil rec)
// and ending at endNS (rec's elapsed offset when negative). The
// resource is service.name, the caller's attrs, the structural hash
// when nonzero and rec's dropped-event count, so truncation shows.
func FromRecorder(rec *journal.Recorder, ctx Context, parent SpanID, rootName string, endNS int64, hash uint64, attrs ...Attr) Trace {
	origin := rec.Origin()
	if rec == nil {
		origin = time.Now()
	}
	if endNS < 0 {
		endNS = rec.Elapsed().Nanoseconds()
	}
	res := make([]Attr, 0, len(attrs)+3)
	res = append(res, Attr{"service.name", serviceName})
	res = append(res, attrs...)
	if hash != 0 {
		res = append(res, Attr{"structural_hash", fmt.Sprintf("%016x", hash)})
	}
	res = append(res, Attr{"journal.dropped_events", strconv.FormatInt(rec.Dropped(), 10)})
	return Trace{
		Ctx: ctx, Parent: parent,
		OriginNS: origin.UnixNano(),
		Resource: res,
		Spans:    Assemble(ctx, parent, rootName, rec.Snapshot(), endNS),
	}
}

// openIndex finds the topmost open span of the given kind and name on
// the stack (searching innermost-first, skipping the root) and
// returns its stack position, or -1.
func openIndex(spans []Span, stack []int, kind, name string) int {
	for k := len(stack) - 1; k >= 1; k-- {
		sp := &spans[stack[k]]
		if sp.EndNS < 0 && sp.Kind == kind && sp.Name == name {
			return k
		}
	}
	return -1
}

// unitAttrs renders a unit_end event's payload as span attributes: the
// fault-axis length (-1 when the run never resolved it), the run's
// per-kind hits, and interrupted=true when the run did not finish
// cleanly (an error, a cancel or a panic).
func unitAttrs(e journal.Event) []Attr {
	attrs := []Attr{
		{"faults", strconv.FormatInt(e.D, 10)},
		{"hits", strconv.FormatInt(e.A, 10)},
	}
	if e.B == 0 {
		attrs = append(attrs, Attr{"interrupted", "true"})
	}
	return attrs
}

// deriveSpan returns the deterministic span ID for assembly step seq
// of the trace rooted at (t, root): FNV-1a over the two identities
// and the sequence number, with the all-zero output (never observed,
// but invalid) patched to a nonzero value. Determinism matters
// because a trace may be assembled more than once — live via the HTTP
// endpoint and again at export — and both views must agree.
func deriveSpan(t TraceID, root SpanID, seq uint64) SpanID {
	h := fnv.New64a()
	h.Write(t[:])
	h.Write(root[:])
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seq >> (8 * i))
	}
	h.Write(b[:])
	var s SpanID
	v := h.Sum64()
	for i := 0; i < 8; i++ {
		s[i] = byte(v >> (8 * i))
	}
	if s.IsZero() {
		s[7] = 1
	}
	return s
}
