// Package obs is the flow's observability layer: monotonic phase
// timers, atomic counters, power-of-two histograms and worker-pool
// utilization samples, collected into a machine-readable Metrics
// snapshot (the `metrics` block of a run report, the `-metrics` output
// of the CLIs, and the expvar export of ServeDebug).
//
// The design constraint is that instrumentation must cost ~nothing when
// it is off, because it sits next to the compiled-evaluator hot paths
// that PR 1 fought for. Everything follows the nil-sink pattern:
//
//   - a nil *Collector is the disabled collector — every method on it
//     is a no-op returning nil handles;
//   - a nil *Counter / *Histogram / *Span is a valid sink — Add, Inc,
//     Observe and End on nil receivers return immediately.
//
// Hot code therefore resolves its handles once, outside the loops
//
//	ctr := col.Counter("faultsim.cycles") // nil when col == nil
//	for ... { ctr.Add(int64(n)) }         // nil check, nothing else
//
// and per-event cost when disabled is a predictable nil-receiver branch.
// Batch-level call sites (one Add per 63-fault batch, not per gate
// evaluation) keep even the enabled cost out of the inner loops; the
// root-package allocation guard TestObsDisabledIsFree pins both
// properties.
//
// A Collector is safe for concurrent use: counters and histograms are
// atomic, and the phase/pool bookkeeping takes a mutex on the (cold)
// registration paths only.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// Collector accumulates one run's metrics. The zero value is not used
// directly: New returns an enabled collector, and a nil *Collector is
// the disabled one.
type Collector struct {
	start time.Time // monotonic run origin

	jr atomic.Pointer[journal.Recorder]

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	phases   []phase
	pools    map[string]*pool
	marks    map[string]struct{}
}

type phase struct {
	name  string
	start time.Duration // offset from Collector.start
	wall  time.Duration // 0 while still open
	open  bool
}

type pool struct {
	wall    time.Duration
	calls   int64
	workers []WorkerStat
}

// WorkerStat is one worker's contribution to one (or several merged)
// pool invocations: time spent inside the work loop and the number of
// work items it claimed.
type WorkerStat struct {
	Busy  time.Duration
	Items int64
}

// New returns an enabled collector whose clock starts now.
func New() *Collector {
	return &Collector{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		pools:    make(map[string]*pool),
	}
}

// Enabled reports whether the collector actually records (false for the
// nil collector).
func (c *Collector) Enabled() bool { return c != nil }

// SetJournal attaches a flight-recorder journal: phase spans recorded
// through this collector are mirrored into it as events, and
// instrumented layers reach it through Journal() for their own event
// kinds (worker batches, classifications, detections, cache probes).
// Pass nil to detach. No-op on the nil collector.
//
// Several collectors may share one recorder (the CLIs run one
// collector per circuit but one journal per process): every event is
// stamped against the recorder's own origin, so the merged timeline
// stays consistent.
func (c *Collector) SetJournal(r *journal.Recorder) {
	if c == nil {
		return
	}
	c.jr.Store(r)
}

// Journal returns the attached flight recorder. Nil — a valid no-op
// sink — when none is attached or on the nil collector. Like Counter,
// resolve it once outside hot loops.
func (c *Collector) Journal() *journal.Recorder {
	if c == nil {
		return nil
	}
	return c.jr.Load()
}

// Notef records one formatted annotation (a phase's summary line) as a
// journal note, where -progress, -tracefile and the daemon's event
// stream show it. It does nothing, formatting included, when no
// journal is attached or on the nil collector.
func (c *Collector) Notef(format string, args ...any) {
	if rec := c.Journal(); rec != nil {
		rec.Emit(journal.Note(fmt.Sprintf(format, args...)))
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid sink) on the nil collector. Intended to be called once
// per run per name, outside hot loops.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr := c.counters[name]
	if ctr == nil {
		ctr = &Counter{}
		c.counters[name] = ctr
	}
	return ctr
}

// MarkOnce records key in the collector's first-seen set and reports
// whether this call was the first for that key. It lets instrumented
// layers count an outcome once per run rather than once per occurrence
// — the engine cache uses it so a run's repeated probes of one circuit
// structure register a single hit or miss instead of inflating the hit
// rate with every lookup. Returns false on the nil collector (nothing
// is ever "first" on the disabled collector).
func (c *Collector) MarkOnce(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.marks == nil {
		c.marks = make(map[string]struct{})
	}
	if _, ok := c.marks[key]; ok {
		return false
	}
	c.marks[key] = struct{}{}
	return true
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a valid sink) on the nil collector.
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.hists[name]
	if h == nil {
		h = &Histogram{}
		c.hists[name] = h
	}
	return h
}

// Phase opens a named phase span and returns its handle; call End when
// the phase completes. Phases are recorded in open order. Returns nil
// (whose End is a no-op) on the nil collector.
func (c *Collector) Phase(name string) *Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	idx := len(c.phases)
	c.phases = append(c.phases, phase{name: name, start: time.Since(c.start), open: true})
	c.mu.Unlock()
	c.Journal().Emit(journal.PhaseBegin(name))
	return &Span{c: c, idx: idx, t0: time.Now()}
}

// Span is an open phase interval.
type Span struct {
	c    *Collector
	idx  int
	t0   time.Time
	done atomic.Bool
}

// End closes the span and returns its wall time. Safe on a nil span and
// idempotent (later calls return the recorded duration unchanged).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	if !s.done.CompareAndSwap(false, true) {
		s.c.mu.Lock()
		d := s.c.phases[s.idx].wall
		s.c.mu.Unlock()
		return d
	}
	d := time.Since(s.t0)
	s.c.mu.Lock()
	s.c.phases[s.idx].wall = d
	s.c.phases[s.idx].open = false
	name := s.c.phases[s.idx].name
	s.c.mu.Unlock()
	s.c.Journal().Emit(journal.PhaseEnd(name, d))
	return d
}

// RecordPool merges one worker-pool invocation into the named pool's
// accumulated statistics: wall is the invocation's elapsed time, stats
// holds one entry per dense worker ID. Repeated invocations (for
// example every fault-simulation call of a flow) accumulate per worker
// index.
func (c *Collector) RecordPool(name string, wall time.Duration, stats []WorkerStat) {
	if c == nil || len(stats) == 0 {
		return
	}
	c.mu.Lock()
	p := c.pools[name]
	if p == nil {
		p = &pool{}
		c.pools[name] = p
	}
	p.wall += wall
	p.calls++
	for len(p.workers) < len(stats) {
		p.workers = append(p.workers, WorkerStat{})
	}
	for i, s := range stats {
		p.workers[i].Busy += s.Busy
		p.workers[i].Items += s.Items
	}
	c.mu.Unlock()
}

// Counter is a monotonically increasing atomic counter. The nil counter
// is a valid sink: Add and Inc on it are no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (ct *Counter) Add(n int64) {
	if ct == nil {
		return
	}
	ct.v.Add(n)
}

// Inc increments the counter by one.
func (ct *Counter) Inc() { ct.Add(1) }

// Value returns the current count (0 on the nil counter).
func (ct *Counter) Value() int64 {
	if ct == nil {
		return 0
	}
	return ct.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// v == 0 and bucket i >= 1 holds 2^(i-1) <= v < 2^i; the last bucket
// absorbs everything larger.
const histBuckets = 33

// Histogram is a histogram-style summary over non-negative int64
// observations with power-of-two buckets, plus count/sum/max. The nil
// histogram is a valid sink.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Snapshot freezes the collector's current state into a plain-data
// Metrics value, ready for JSON encoding or FormatMetrics. Open phases
// are reported with their wall time so far. Returns nil on the nil
// collector.
func (c *Collector) Snapshot() *Metrics {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &Metrics{
		WallNS:   time.Since(c.start).Nanoseconds(),
		Counters: make(map[string]int64, len(c.counters)),
	}
	for _, ph := range c.phases {
		wall := ph.wall
		if ph.open {
			wall = time.Since(c.start) - ph.start
		}
		m.Phases = append(m.Phases, PhaseMetric{
			Name:    ph.name,
			StartNS: ph.start.Nanoseconds(),
			WallNS:  wall.Nanoseconds(),
		})
	}
	for name, ctr := range c.counters {
		m.Counters[name] = ctr.Value()
	}
	// An attached flight recorder contributes its overwrite count: a
	// non-zero journal.dropped_events warns that the event timeline (and
	// everything derived from it, like live unit-progress estimates) is
	// missing its oldest entries.
	if rec := c.jr.Load(); rec != nil {
		m.Counters["journal.dropped_events"] = rec.Dropped()
	}
	if len(c.hists) > 0 {
		m.Histograms = make(map[string]HistogramMetric, len(c.hists))
		for name, h := range c.hists {
			hm := HistogramMetric{
				Count: h.count.Load(),
				Sum:   h.sum.Load(),
				Max:   h.max.Load(),
			}
			for b := 0; b < histBuckets; b++ {
				n := h.buckets[b].Load()
				if n == 0 {
					continue
				}
				le := int64(-1) // last bucket: unbounded
				if b < histBuckets-1 {
					le = (int64(1) << uint(b)) - 1
				}
				hm.Buckets = append(hm.Buckets, HistogramBucket{Le: le, Count: n})
			}
			hm.P50 = hm.Quantile(0.50)
			hm.P95 = hm.Quantile(0.95)
			hm.P99 = hm.Quantile(0.99)
			m.Histograms[name] = hm
		}
	}
	if len(c.pools) > 0 {
		m.Pools = make(map[string]PoolMetric, len(c.pools))
		for name, p := range c.pools {
			pm := PoolMetric{WallNS: p.wall.Nanoseconds(), Calls: p.calls}
			var busy time.Duration
			for _, w := range p.workers {
				pm.Workers = append(pm.Workers, WorkerMetric{
					BusyNS: w.Busy.Nanoseconds(),
					Items:  w.Items,
				})
				busy += w.Busy
			}
			if p.wall > 0 && len(p.workers) > 0 {
				pm.Utilization = float64(busy) / (float64(p.wall) * float64(len(p.workers)))
			}
			m.Pools[name] = pm
		}
	}
	return m
}

// CounterNames returns the sorted names of all registered counters
// (diagnostics and tests).
func (c *Collector) CounterNames() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.counters))
	for n := range c.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
