package par

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16, 100} {
		const n = 257
		counts := make([]atomic.Int32, n)
		DoCtx(context.Background(), workers, n, func(_, i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestDoWorkerIDsAreDense(t *testing.T) {
	const workers, n = 4, 64
	var seen [workers]atomic.Int32
	DoCtx(context.Background(), workers, n, func(w, _ int) {
		if w < 0 || w >= workers {
			t.Errorf("worker ID %d out of range", w)
			return
		}
		seen[w].Add(1)
	})
	total := int32(0)
	for i := range seen {
		total += seen[i].Load()
	}
	if total != n {
		t.Errorf("visited %d indices, want %d", total, n)
	}
}

func TestDoDeterministicMerge(t *testing.T) {
	// Writes keyed by index must produce identical output at any width.
	const n = 500
	ref := make([]int, n)
	DoCtx(context.Background(), 1, n, func(_, i int) { ref[i] = i * i })
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := make([]int, n)
		DoCtx(context.Background(), workers, n, func(_, i int) { got[i] = i * i })
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestDoEmptyAndSerialInline(t *testing.T) {
	DoCtx(context.Background(), 4, 0, func(_, _ int) { t.Error("fn called for n=0") })
	// workers=1 must run on the calling goroutine (no races on plain locals).
	sum := 0
	DoCtx(context.Background(), 1, 10, func(_, i int) { sum += i })
	if sum != 45 {
		t.Errorf("serial sum = %d", sum)
	}
}

// TestWorkerPanicReachesCaller: a panic on a pool worker is re-raised
// on the calling goroutine, with the worker's stack, after every worker
// has returned; the serial path panics inline with the raw value.
func TestWorkerPanicReachesCaller(t *testing.T) {
	catch := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	boom := func(_, i int) {
		if i == 37 {
			panic("boom")
		}
	}
	var running atomic.Int32
	pools := map[string]func(){
		"DoCtx": func() {
			DoCtx(context.Background(), 4, 100, func(w, i int) {
				running.Add(1)
				defer running.Add(-1)
				boom(w, i)
			})
		},
		"DoPoolCtx": func() { DoPoolCtx(context.Background(), 4, 100, "boom", obs.New(), boom) },
	}
	for name, pool := range pools {
		wp, ok := catch(pool).(*WorkerPanic)
		if !ok || wp.Value != "boom" || wp.Error() != "boom" {
			t.Fatalf("%s: recovered %#v, want *WorkerPanic{Value: boom}", name, wp)
		}
		if !strings.Contains(string(wp.Stack), "par_test.go") {
			t.Errorf("%s: worker stack does not reach the panicking fn:\n%s", name, wp.Stack)
		}
	}
	if n := running.Load(); n != 0 {
		t.Errorf("%d workers still running after DoCtx re-panicked", n)
	}
	if v := catch(func() { DoCtx(context.Background(), 1, 100, boom) }); v != "boom" {
		t.Errorf("serial path recovered %#v, want the raw value", v)
	}
}

func TestChunks(t *testing.T) {
	if c := Chunks(0, 63); c != nil {
		t.Errorf("Chunks(0) = %v", c)
	}
	if c := Chunks(10, 0); len(c) != 1 || c[0] != (Range{0, 10}) {
		t.Errorf("Chunks(10,0) = %v", c)
	}
	c := Chunks(200, 63)
	want := []Range{{0, 63}, {63, 126}, {126, 189}, {189, 200}}
	if len(c) != len(want) {
		t.Fatalf("Chunks(200,63) = %v", c)
	}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("chunk %d = %v, want %v", i, c[i], want[i])
		}
	}
	if c[len(c)-1].Len() != 11 {
		t.Errorf("tail chunk len = %d", c[len(c)-1].Len())
	}
}

func TestBitSet(t *testing.T) {
	b := NewBitSet(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh set: len %d count %d", b.Len(), b.Count())
	}
	if !b.Set(0) || !b.Set(64) || !b.Set(129) {
		t.Error("first Set returned false")
	}
	if b.Set(64) {
		t.Error("second Set(64) returned true")
	}
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Error("membership wrong")
	}
	if b.Count() != 3 {
		t.Errorf("count = %d", b.Count())
	}
}

func TestBitSetConcurrent(t *testing.T) {
	const n = 4096
	b := NewBitSet(n)
	var newly atomic.Int64
	// Every index set twice concurrently: exactly n "newly added" wins.
	DoCtx(context.Background(), 8, 2*n, func(_, i int) {
		if b.Set(i % n) {
			newly.Add(1)
		}
	})
	if newly.Load() != n {
		t.Errorf("newly added = %d, want %d", newly.Load(), n)
	}
	if b.Count() != n {
		t.Errorf("count = %d, want %d", b.Count(), n)
	}
}

// pooled runs DoPoolCtx under a fresh enabled collector and returns
// the pool metric it recorded (ok is false when none was).
func pooled(t *testing.T, workers, n int, fn func(worker, index int)) (m obs.PoolMetric, ok bool) {
	t.Helper()
	col := obs.New()
	if err := DoPoolCtx(context.Background(), workers, n, "pool", col, fn); err != nil {
		t.Fatal(err)
	}
	m, ok = col.Snapshot().Pools["pool"]
	return m, ok
}

func TestDoPoolCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 500
		var hits [n]atomic.Int32
		m, _ := pooled(t, workers, n, func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, got)
			}
		}
		var items int64
		for _, w := range m.Workers {
			items += w.Items
		}
		if items != n {
			t.Fatalf("workers=%d: item counts sum to %d, want %d", workers, items, n)
		}
		if m.Calls != 1 || len(m.Workers) != min(workers, n) {
			t.Fatalf("workers=%d: %d calls, %d worker entries, want 1 and %d", workers, m.Calls, len(m.Workers), min(workers, n))
		}
	}
	if m, ok := pooled(t, 4, 0, func(_, _ int) {}); ok {
		t.Fatalf("n=0 must record no pool, got %+v", m)
	}
}

func TestDoPoolSerialInline(t *testing.T) {
	var worker atomic.Int32
	m, _ := pooled(t, 1, 10, func(w, _ int) { worker.Store(int32(w)) })
	if worker.Load() != 0 {
		t.Fatal("serial path must use worker 0")
	}
	if len(m.Workers) != 1 || m.Workers[0].Items != 10 || m.Workers[0].BusyNS < 0 {
		t.Fatalf("serial pool = %+v", m)
	}
}
