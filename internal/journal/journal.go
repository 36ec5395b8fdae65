// Package journal is the flow's flight recorder: a bounded, concurrency-
// safe buffer of structured events that the phases, worker pools,
// screening engine, ATPG engines, fault simulator and artifact cache
// emit into while a run executes. Where the metrics layer (internal/obs)
// answers "how much", the journal answers "when and why": every event is
// stamped against one run origin, so consumers can reconstruct the full
// timeline of a run after the fact.
//
// Live consumers subscribe (Recorder.Subscribe), each on its own, so
// the recorder is a run's only live sink: Progress renders stamped
// phase and note lines and a throttled rate/ETA line (-progress), the
// daemon's run tracker (internal/telemetry) folds a job's events into
// its live progress, and the daemon's per-job hub (internal/serve)
// wakes its SSE readers.
// Offline consumers read the buffer: internal/trace assembles it into
// the run's span tree (exported as OTLP/JSON and as Chrome trace
// events), and provenance replay (internal/core) explains one fault's
// journey. This package records; it encodes no trace format.
//
// The recorder follows the same cost discipline as internal/obs: a nil
// *Recorder is the disabled recorder — Emit on it returns immediately —
// and hot paths resolve the recorder once, outside their loops, so the
// disabled cost is one nil check per batch-level event site. The buffer
// is bounded: events past the capacity are counted (Dropped) rather
// than stored, so a runaway emitter can cost memory at most once.
package journal

import (
	"slices"
	"sync"
	"time"
)

// Kind discriminates the event payload.
type Kind uint8

// Event kinds. The payload fields A-D are kind-specific; Arg carries
// the event's name (phase, pool, engine prefix) and should be an
// interned/constant string so emission does not allocate.
const (
	// KindNote is a freeform annotation; Arg is the text.
	KindNote Kind = iota
	// KindPhaseBegin marks a phase opening; Arg is the phase name.
	KindPhaseBegin
	// KindPhaseEnd marks a phase closing; Arg is the phase name, DurNS
	// the phase wall time (TNS is the phase start, like all span events).
	KindPhaseEnd
	// KindBatch is one completed worker-pool work item: Arg the pool
	// name, Worker the dense worker ID, A the item index, B the total
	// item count of the pool invocation, DurNS the item's wall time.
	KindBatch
	// KindClassify is one screening verdict contribution: A the fault
	// key, B the category (1 or 2), C the packed chain/segment location
	// (LocChainSeg), D the implicating net (on-path net pinned definite
	// for category 1, side input gone X for category 2).
	KindClassify
	// KindATPG is one completed test-generation attempt: Arg the engine
	// prefix (atpg.comb, atpg.seq, atpg.final), A the fault key (or -1
	// when the attempt has no single original-fault identity), B the
	// result status (atpg.Status numeric value), C the backtrack count,
	// DurNS the attempt's wall time.
	KindATPG
	// KindDetect is one fault detection during fault simulation: A the
	// fault key, B the detecting cycle within the simulated sequence.
	KindDetect
	// KindCache is one artifact-cache lookup: Arg the cache name, A 1
	// for a hit and 0 for a miss.
	KindCache
	// KindUnitBegin marks a task run's start; it carries no payload.
	// The tracing layer (internal/trace) turns a begin/end pair into one
	// unit span under the run's root span.
	KindUnitBegin
	// KindUnitEnd marks a task run's finish: D the fault-axis length
	// (-1 when the run stopped before resolving it), A the run's
	// per-kind hits (detections, chain-affecting verdicts, generated
	// tests, resolved candidates), B 1 for a clean finish and 0 for an
	// interrupted one, DurNS the run's wall time (TNS the run start,
	// like all span events).
	KindUnitEnd
	// KindAxis announces a run's fault-axis length as soon as the run
	// knows it: D the length. A task run emits it once, between its
	// unit_begin and unit_end.
	KindAxis
)

func (k Kind) String() string {
	switch k {
	case KindNote:
		return "note"
	case KindPhaseBegin:
		return "phase_begin"
	case KindPhaseEnd:
		return "phase_end"
	case KindBatch:
		return "batch"
	case KindClassify:
		return "classify"
	case KindATPG:
		return "atpg"
	case KindDetect:
		return "detect"
	case KindCache:
		return "cache"
	case KindUnitBegin:
		return "unit_begin"
	case KindUnitEnd:
		return "unit_end"
	case KindAxis:
		return "axis"
	}
	return "unknown"
}

// Event is one journal entry. TNS is the event's start offset from the
// recorder origin in nanoseconds (Emit stamps it); DurNS is the span
// length for span-like events and zero for instants. A-D carry the
// kind-specific payload.
type Event struct {
	TNS    int64
	DurNS  int64
	A      int64
	B      int64
	C      int64
	D      int64
	Kind   Kind
	Worker int32
	Arg    string
}

// DefaultCapacity bounds a recorder constructed with capacity <= 0:
// at most 64Ki events (~4.5 MiB) are stored. It is a cap, not a
// preallocation — storage grows in chunks as events arrive — so large
// flows overflow the tail counters into Dropped rather than growing
// without bound, while short runs cost only what they record.
const DefaultCapacity = 1 << 16

// Chunk sizes, in events: the first chunk holds firstChunk events and
// each later one doubles its predecessor up to maxChunk, so a short run
// allocates ~18 KiB and a full default-capacity recorder ~13 chunks.
const (
	firstChunk = 256
	maxChunk   = 8 << 10
)

// Recorder is a bounded event buffer with one monotonic origin. The
// zero value is not used: New returns an enabled recorder, and a nil
// *Recorder is the disabled one (Emit and the accessors are no-ops).
// Emit is safe for concurrent use.
//
// Events live in a list of chunks, each allocated at its full size when
// the previous one fills; a stored event is never moved.
type Recorder struct {
	start time.Time
	limit int

	mu      sync.Mutex
	chunks  [][]Event // all full except possibly the last
	n       int       // stored events, across chunks
	dropped int64
	subs    []*func(Event) // copy-on-write: replaced whole, never mutated
}

// New returns an enabled recorder whose clock starts now and which
// stores at most capacity events; capacity <= 0 selects
// DefaultCapacity. Nothing is preallocated.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{start: time.Now(), limit: capacity}
}

// Enabled reports whether the recorder actually records (false for the
// nil recorder).
func (r *Recorder) Enabled() bool { return r != nil }

// Emit records one event, stamping its TNS so that TNS is the event's
// start: the current offset minus the event's DurNS. Events beyond the
// capacity increment Dropped instead of being stored; subscribers still
// see them. No-op on the nil recorder.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	e.TNS = time.Since(r.start).Nanoseconds() - e.DurNS
	r.mu.Lock()
	if r.n < r.limit {
		last := len(r.chunks) - 1
		if last < 0 || len(r.chunks[last]) == cap(r.chunks[last]) {
			r.grow()
			last++
		}
		r.chunks[last] = append(r.chunks[last], e)
		r.n++
	} else {
		r.dropped++
	}
	subs := r.subs
	r.mu.Unlock()
	for _, fn := range subs {
		(*fn)(e)
	}
}

// grow appends an empty chunk twice the size of the last one (firstChunk
// for the first), capped at maxChunk and at the room left under the
// limit. Callers hold r.mu.
func (r *Recorder) grow() {
	size := firstChunk
	if k := len(r.chunks); k > 0 {
		size = min(2*cap(r.chunks[k-1]), maxChunk)
	}
	size = min(size, r.limit-r.n)
	r.chunks = append(r.chunks, make([]Event, 0, size))
}

// Subscribe registers fn to be called synchronously on every later
// Emit, after the event is recorded, and returns the function that
// detaches it again. Subscribers are called in subscription order and
// see every event, including those past the capacity. They must be
// fast and must not call back into the recorder. On the nil recorder
// Subscribe does nothing and returns a no-op cancel.
func (r *Recorder) Subscribe(fn func(Event)) (cancel func()) {
	if r == nil {
		return func() {}
	}
	sub := &fn
	r.mu.Lock()
	r.subs = append(slices.Clip(r.subs), sub)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.subs = slices.DeleteFunc(slices.Clone(r.subs), func(s *func(Event)) bool { return s == sub })
		r.mu.Unlock()
	}
}

// Snapshot returns a copy of the recorded events in emission order.
// Returns nil on the nil recorder.
func (r *Recorder) Snapshot() []Event { return r.Since(0) }

// Since returns a copy of the recorded events from index i on (in
// emission order), or nil when i is at or past the end. Incremental
// consumers — the SSE bridge of the service layer — poll it with their
// own cursor instead of re-copying the whole buffer via Snapshot.
// Returns nil on the nil recorder.
func (r *Recorder) Since(i int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i >= r.n {
		return nil
	}
	out := make([]Event, 0, r.n-i)
	for _, c := range r.chunks {
		if i >= len(c) {
			i -= len(c)
			continue
		}
		out = append(out, c[i:]...)
		i = 0
	}
	return out
}

// Len returns the number of stored events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many events overflowed the capacity.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Capacity returns the most events the recorder will store — the
// limit New was given, not the memory allocated so far (0 for nil).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return r.limit
}

// Origin returns the wall-clock instant of the recorder's clock
// origin — the moment event offsets are measured from. Trace
// exporters use it to place the run's spans on the absolute
// timeline. Returns the zero time on the nil recorder.
func (r *Recorder) Origin() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// Elapsed returns the offset from the recorder origin to now.
func (r *Recorder) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// ---- Event constructors ----
//
// These keep the payload packing in one place; emitters call
// rec.Emit(journal.Batch(...)) style.

// Note builds a freeform annotation event.
func Note(text string) Event { return Event{Kind: KindNote, Arg: text} }

// PhaseBegin builds a phase-open event.
func PhaseBegin(name string) Event { return Event{Kind: KindPhaseBegin, Arg: name} }

// PhaseEnd builds a phase-close event spanning dur.
func PhaseEnd(name string, dur time.Duration) Event {
	return Event{Kind: KindPhaseEnd, Arg: name, DurNS: dur.Nanoseconds()}
}

// Batch builds a worker-pool item event: item index of total, run by
// worker, taking dur.
func Batch(pool string, worker, index, total int, dur time.Duration) Event {
	return Event{Kind: KindBatch, Arg: pool, Worker: int32(worker),
		A: int64(index), B: int64(total), DurNS: dur.Nanoseconds()}
}

// Classify builds a screening-verdict event for the fault key: category
// cat at chain/seg, implicated by net.
func Classify(fk FaultKey, cat int, chain, seg int, net int64) Event {
	return Event{Kind: KindClassify, A: int64(fk), B: int64(cat),
		C: LocChainSeg(chain, seg), D: net}
}

// ATPG builds a test-generation-attempt event under the engine prefix:
// status and backtracks for the fault key (pass FaultKey(-1) when the
// attempt has no original-fault identity), spanning dur.
func ATPG(prefix string, fk FaultKey, status, backtracks int, dur time.Duration) Event {
	return Event{Kind: KindATPG, Arg: prefix, A: int64(fk), B: int64(status),
		C: int64(backtracks), DurNS: dur.Nanoseconds()}
}

// Detect builds a fault-detection event: fault key detected at cycle.
func Detect(fk FaultKey, cycle int) Event {
	return Event{Kind: KindDetect, A: int64(fk), B: int64(cycle)}
}

// Cache builds an artifact-cache lookup event.
func Cache(name string, hit bool) Event {
	a := int64(0)
	if hit {
		a = 1
	}
	return Event{Kind: KindCache, Arg: name, A: a}
}

// UnitBegin builds the start event of a task run.
func UnitBegin() Event { return Event{Kind: KindUnitBegin} }

// UnitEnd builds the finish event of a task run spanning dur: faults is
// the fault-axis length (-1 when the run stopped before resolving it),
// hits the run's per-kind hits, clean whether the run finished without
// error.
func UnitEnd(faults, hits int, clean bool, dur time.Duration) Event {
	e := Event{Kind: KindUnitEnd, A: int64(hits), D: int64(faults), DurNS: dur.Nanoseconds()}
	if clean {
		e.B = 1
	}
	return e
}

// Axis builds the event announcing a run's fault-axis length n.
func Axis(n int) Event { return Event{Kind: KindAxis, D: int64(n)} }

// LocChainSeg packs a chain/segment location into one payload field
// (chain in the high bits, segment in the low 24).
func LocChainSeg(chain, seg int) int64 {
	return int64(chain)<<24 | int64(seg&0xffffff)
}

// UnpackLoc reverses LocChainSeg.
func UnpackLoc(v int64) (chain, seg int) {
	return int(v >> 24), int(v & 0xffffff)
}

// FaultKey is a packed single-stuck-at fault identity, stable within one
// circuit: the faulty signal, the consuming gate and pin for branch
// faults, and the stuck value. It exists so journal events can name a
// fault without depending on the fault package; the packing assumes
// signal and gate IDs below 2^24 (16M signals — far above any circuit
// this repo simulates).
type FaultKey int64

// NewFaultKey packs a fault identity. For stem faults pass gate = -1 and
// pin = -1 (the encodings of netlist.None and the stem pin).
func NewFaultKey(signal, gate, pin int, stuck uint8) FaultKey {
	return FaultKey(int64(signal&0xffffff)<<34 |
		int64((gate+1)&0xffffff)<<10 |
		int64((pin+1)&0xff)<<2 |
		int64(stuck&3))
}

// Unpack reverses NewFaultKey.
func (fk FaultKey) Unpack() (signal, gate, pin int, stuck uint8) {
	v := int64(fk)
	return int(v >> 34 & 0xffffff),
		int(v>>10&0xffffff) - 1,
		int(v>>2&0xff) - 1,
		uint8(v & 3)
}
