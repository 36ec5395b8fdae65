// Package par provides the bounded-parallelism primitives the fault
// simulator and screening engine shard their fault axis with: a worker
// pool with dynamic index distribution (DoCtx, plus DoPoolCtx, which
// feeds the observability layer's pool-utilization metrics from the
// same claim loop), chunk helpers for 63-wide fault batches, and an
// atomic bit set for cross-worker fault dropping.
//
// Determinism contract: DoCtx distributes indices dynamically, so the
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
// worker's stack. Forwarding it lets a recover above DoCtx (the
// daemon's per-job isolation) catch a worker's panic as it catches one
// raised on the serial path, which panics inline with the raw value.
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

// DoCtx runs fn(worker, index) for every index in [0, n), distributing
// indices dynamically over min(workers, n) goroutines. The worker
// argument is a dense ID in [0, workers) so callers can give each
// goroutine its own scratch state (for example a private compiled
// evaluator). With workers <= 1 everything runs inline on the calling
// goroutine with worker 0 — the serial path has no pool overhead.
//
// fn must confine its writes to storage owned by index (or by the
// chunk that index denotes); under that discipline the result is
// independent of worker count and scheduling.
//
// Every worker checks the context before claiming the next index and
// stops claiming once it is cancelled. Indices already claimed run to
// completion (an in-flight fault batch finishes; nothing is interrupted
// mid-write), every worker goroutine is joined before DoCtx returns —
// cancellation never leaks a goroutine — and the context error (if
// any) is returned. A nil context behaves like context.Background.
func DoCtx(ctx context.Context, workers, n int, fn func(worker, index int)) error {
	run(ctx, poolSize(workers, n), n, fn, nil)
	return ctxErr(ctx)
}

// DoPoolCtx is DoCtx observed: the invocation's wall time and each
// worker's busy time and claimed-index count are merged into col's
// named pool metric, and when a flight recorder is attached
// (col.SetJournal) each claimed index additionally becomes one journal
// batch-span event carrying its worker, position and duration. The
// workload is CPU-bound with no blocking, so a worker's loop time is
// its busy time; uneven busy time or items across workers is the
// load-imbalance signature surfaced as pool utilization.
//
// With no recorder attached the per-index clock reads are skipped
// entirely, so the overhead over DoCtx is the stats slice and a few
// clock reads per invocation; with col == nil it is plain DoCtx. The
// distribution and determinism contract match DoCtx.
func DoPoolCtx(ctx context.Context, workers, n int, name string, col *obs.Collector, fn func(worker, index int)) error {
	if col == nil || n <= 0 {
		return DoCtx(ctx, workers, n, fn)
	}
	each := fn
	if rec := col.Journal(); rec.Enabled() {
		each = func(worker, index int) {
			t0 := time.Now()
			fn(worker, index)
			rec.Emit(journal.Batch(name, worker, index, n, time.Since(t0)))
		}
	}
	t0 := time.Now()
	stats := make([]obs.WorkerStat, poolSize(workers, n))
	run(ctx, len(stats), n, each, stats)
	col.RecordPool(name, time.Since(t0), stats)
	return ctxErr(ctx)
}

// poolSize resolves the goroutine count for n indices:
// min(Workers(workers), n).
func poolSize(workers, n int) int {
	return min(Workers(workers), n)
}

// ctxErr is ctx.Err() with a nil context read as context.Background.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// run is the pool's one claim loop: workers goroutines (inline on the
// caller when workers <= 1) claim indices in [0, n) from a shared
// counter until they run out or ctx is cancelled. A worker goroutine's
// panic stops further claims and is re-raised on the caller once every
// worker has returned. When stats is non-nil, stats[w] receives worker
// w's loop time and claimed-index count.
func run(ctx context.Context, workers, n int, fn func(worker, index int), stats []obs.WorkerStat) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		var next atomic.Int64 // stays on the stack: no goroutine shares it
		claim(ctx, 0, n, &next, fn, stats)
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
			claim(ctx, worker, n, &next, fn, stats)
		}(w)
	}
	wg.Wait()
	pp.rethrow()
}

// claim is one worker's loop: it runs fn on each index it claims from
// next until the indices run out or ctx is cancelled.
func claim(ctx context.Context, worker, n int, next *atomic.Int64, fn func(worker, index int), stats []obs.WorkerStat) {
	var t0 time.Time
	if stats != nil {
		t0 = time.Now()
	}
	items := int64(0)
	for ctx == nil || ctx.Err() == nil {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(worker, i)
		items++
	}
	if stats != nil {
		stats[worker] = obs.WorkerStat{Busy: time.Since(t0), Items: items}
	}
}

// PerWorker is a lazily-populated per-worker arena: slot w is built by
// the constructor on worker w's first Get and reused for every
// subsequent index that worker claims. It replaces the
// make-then-index-by-worker pattern the parallel loops used for scratch
// state, and keeps construction off workers that never run (DoCtx may use
// fewer goroutines than requested). Get is safe under DoCtx's contract —
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
