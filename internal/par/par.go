// Package par provides the bounded-parallelism primitives the fault
// simulator and screening engine shard their fault axis with: a worker
// pool with dynamic index distribution (Do, plus the measured DoTimedCtx
// variant feeding the observability layer's pool-utilization metrics),
// chunk helpers for 63-wide fault batches, and an atomic bit set for
// cross-worker fault dropping.
//
// Determinism contract: Do distributes indices dynamically, so the
// order in which indices are processed is scheduling-dependent — but
// every caller writes results only into slots keyed by the index (or
// into the disjoint fault range a chunk owns), so the merged output is
// byte-identical regardless of worker count. Tests in the faultsim and
// core packages pin that property for workers = 1, 4 and GOMAXPROCS.
package par

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned as given.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// WorkerPanic is what a pool re-raises on its calling goroutine when a
// worker goroutine panicked: the first worker's panic value and that
// worker's stack. Forwarding it lets a recover above Do (the daemon's
// per-job isolation) catch a worker's panic as it catches one raised on
// the serial path, which panics inline with the raw value.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string { return fmt.Sprint(p.Value) }

// poolPanic carries the first panic among one pool's workers.
type poolPanic struct{ first atomic.Pointer[WorkerPanic] }

// catch is deferred by every worker goroutine: it records the first
// panic and stops further index claims so the pool drains quickly.
func (pp *poolPanic) catch(next *atomic.Int64, n int) {
	if v := recover(); v != nil {
		pp.first.CompareAndSwap(nil, &WorkerPanic{Value: v, Stack: debug.Stack()})
		next.Store(int64(n))
	}
}

// rethrow re-raises the recorded panic, if any, once every worker has
// returned.
func (pp *poolPanic) rethrow() {
	if p := pp.first.Load(); p != nil {
		panic(p)
	}
}

// Do runs fn(worker, index) for every index in [0, n), distributing
// indices dynamically over min(workers, n) goroutines. The worker
// argument is a dense ID in [0, workers) so callers can give each
// goroutine its own scratch state (for example a private packed
// evaluator). With workers <= 1 everything runs inline on the calling
// goroutine with worker 0 — the serial path has no pool overhead.
//
// fn must confine its writes to storage owned by index (or by the
// chunk that index denotes); under that discipline the result is
// independent of worker count and scheduling.
func Do(workers, n int, fn func(worker, index int)) {
	doCtx(nil, workers, n, fn)
}

// DoCtx is Do with cooperative cancellation: every worker checks the
// context before claiming the next index and stops claiming once it is
// cancelled. Indices already claimed run to completion (an in-flight
// fault batch finishes; nothing is interrupted mid-write), every worker
// goroutine is joined before DoCtx returns — cancellation never leaks a
// goroutine — and the context error (if any) is returned. A nil context
// behaves like context.Background.
func DoCtx(ctx context.Context, workers, n int, fn func(worker, index int)) error {
	doCtx(ctx, workers, n, fn)
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func doCtx(ctx context.Context, workers, n int, fn func(worker, index int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var pp poolPanic
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			defer pp.catch(&next, n)
			for {
				if ctx != nil && ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	pp.rethrow()
}

// WorkerStat aliases the observability layer's per-worker sample (busy
// time inside the work loop plus indices claimed), so DoTimedCtx results
// feed Collector.RecordPool without conversion. The workload is
// CPU-bound with no blocking, so loop time is busy time; uneven
// Busy/Items across workers is the load-imbalance signature surfaced as
// pool utilization.
type WorkerStat = obs.WorkerStat

// DoTimedCtx is DoCtx plus per-worker measurement: it returns one
// WorkerStat per dense worker ID (length min(workers, n) after
// resolution), covering whatever work ran before the context fired.
// The distribution, determinism contract and serial path match Do
// exactly; the only extra cost is the stats slice and two monotonic
// clock reads per worker, so it is safe to substitute for DoCtx
// whenever a collector is enabled.
func DoTimedCtx(ctx context.Context, workers, n int, fn func(worker, index int)) ([]WorkerStat, error) {
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	if n <= 0 {
		return nil, ctxErr()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	stats := make([]WorkerStat, workers)
	if workers <= 1 {
		t0 := time.Now()
		items := int64(0)
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				break
			}
			fn(0, i)
			items++
		}
		stats[0] = WorkerStat{Busy: time.Since(t0), Items: items}
		return stats, ctxErr()
	}
	var next atomic.Int64
	var pp poolPanic
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			defer pp.catch(&next, n)
			t0 := time.Now()
			items := int64(0)
			for {
				if ctx != nil && ctx.Err() != nil {
					break
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				fn(worker, i)
				items++
			}
			stats[worker] = WorkerStat{Busy: time.Since(t0), Items: items}
		}(w)
	}
	wg.Wait()
	pp.rethrow()
	return stats, ctxErr()
}

// DoPoolCtx is the fully observed pool: DoTimedCtx plus the pool
// bookkeeping every instrumented call site repeats — the invocation's
// wall time and per-worker stats are merged into col's named pool
// metric, and when a flight recorder is attached (col.SetJournal) each
// claimed index additionally becomes one journal batch-span event
// carrying its worker, position and duration.
//
// With no recorder attached the per-index clock reads are skipped
// entirely, so the overhead over DoTimedCtx is two time.Now calls per
// invocation; with col == nil it is plain DoCtx. The distribution and
// determinism contract match Do.
func DoPoolCtx(ctx context.Context, workers, n int, name string, col *obs.Collector, fn func(worker, index int)) error {
	if col == nil {
		return DoCtx(ctx, workers, n, fn)
	}
	run := fn
	if rec := col.Journal(); rec.Enabled() {
		run = func(worker, index int) {
			t0 := time.Now()
			fn(worker, index)
			rec.Emit(journal.Batch(name, worker, index, n, time.Since(t0)))
		}
	}
	t0 := time.Now()
	stats, err := DoTimedCtx(ctx, workers, n, run)
	col.RecordPool(name, time.Since(t0), stats)
	return err
}

// PerWorker is a lazily-populated per-worker arena: slot w is built by
// the constructor on worker w's first Get and reused for every
// subsequent index that worker claims. It replaces the
// make-then-index-by-worker pattern the parallel loops used for scratch
// state, and keeps construction off workers that never run (Do may use
// fewer goroutines than requested). Get is safe under Do's contract —
// each worker index is owned by exactly one goroutine.
type PerWorker[T any] struct {
	slots []T
	built []bool
	newT  func() T
}

// NewPerWorker returns an arena of `workers` slots, each built on first
// use by newT.
func NewPerWorker[T any](workers int, newT func() T) *PerWorker[T] {
	if workers < 1 {
		workers = 1
	}
	return &PerWorker[T]{
		slots: make([]T, workers),
		built: make([]bool, workers),
		newT:  newT,
	}
}

// Get returns worker w's slot, constructing it on first use.
func (p *PerWorker[T]) Get(w int) T {
	if !p.built[w] {
		p.slots[w] = p.newT()
		p.built[w] = true
	}
	return p.slots[w]
}

// Range is a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Chunks splits [0, total) into contiguous ranges of at most size
// indices, in ascending order. It returns nil when total <= 0; size <= 0
// yields a single range covering everything.
func Chunks(total, size int) []Range {
	if total <= 0 {
		return nil
	}
	if size <= 0 {
		return []Range{{0, total}}
	}
	out := make([]Range, 0, (total+size-1)/size)
	for lo := 0; lo < total; lo += size {
		hi := lo + size
		if hi > total {
			hi = total
		}
		out = append(out, Range{lo, hi})
	}
	return out
}

// Shards splits [0, total) into at most n contiguous ranges whose
// boundaries fall on multiples of chunk (the last range ends at total),
// balanced to within one chunk of each other. Because every boundary is
// chunk-aligned, work distributed in chunk-wide batches (the 63-fault
// packed-simulation batches) sees exactly the same batch geometry
// whether it runs as one range or as n — which is what keeps
// shard-merged results byte-identical to a single-range run. It returns
// nil when total <= 0; chunk <= 0 means no alignment constraint
// (boundaries fall on single indices).
func Shards(total, chunk, n int) []Range {
	if total <= 0 {
		return nil
	}
	if chunk <= 0 {
		chunk = 1
	}
	if n < 1 {
		n = 1
	}
	batches := (total + chunk - 1) / chunk
	if n > batches {
		n = batches
	}
	out := make([]Range, 0, n)
	base, rem := batches/n, batches%n
	b := 0
	for i := 0; i < n; i++ {
		take := base
		if i < rem {
			take++
		}
		lo := b * chunk
		b += take
		hi := b * chunk
		if hi > total {
			hi = total
		}
		out = append(out, Range{lo, hi})
	}
	return out
}

// BitSet is a fixed-size set of integers safe for concurrent use. The
// fault simulator and the step-2 dropper share one across workers as
// the detected-fault set: concurrent Set calls on any indices are safe,
// and a Get that observes true stays true (bits are never cleared).
type BitSet struct {
	words []atomic.Uint64
	n     int
}

// NewBitSet returns an empty set over [0, n).
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]atomic.Uint64, (n+63)/64), n: n}
}

// Len returns the domain size the set was created with.
func (b *BitSet) Len() int { return b.n }

// Set adds i to the set and reports whether it was newly added.
func (b *BitSet) Set(i int) bool {
	w := &b.words[i>>6]
	bit := uint64(1) << uint(i&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// Get reports whether i is in the set.
func (b *BitSet) Get(i int) bool {
	return b.words[i>>6].Load()&(uint64(1)<<uint(i&63)) != 0
}

// Count returns the number of elements currently in the set.
func (b *BitSet) Count() int {
	n := 0
	for i := range b.words {
		n += bits.OnesCount64(b.words[i].Load())
	}
	return n
}
