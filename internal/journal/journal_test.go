package journal

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilRecorderIsValidSink(t *testing.T) {
	var r *Recorder
	r.Emit(Note("ignored"))
	r.Subscribe(func(Event) { t.Fatal("subscriber on nil recorder") })()
	if r.Enabled() || r.Len() != 0 || r.Dropped() != 0 || r.Capacity() != 0 {
		t.Error("nil recorder reports non-zero state")
	}
	if r.Snapshot() != nil {
		t.Error("nil recorder snapshot not nil")
	}
}

func TestEmitStampsAndOrders(t *testing.T) {
	r := New(16)
	r.Emit(PhaseBegin("screen"))
	r.Emit(PhaseEnd("screen", 5*time.Millisecond))
	ev := r.Snapshot()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	if ev[0].Kind != KindPhaseBegin || ev[1].Kind != KindPhaseEnd {
		t.Fatalf("kinds = %v, %v", ev[0].Kind, ev[1].Kind)
	}
	if ev[0].TNS < 0 {
		t.Errorf("begin TNS = %d, want >= 0", ev[0].TNS)
	}
	// End events are stamped at their start: TNS = emit offset - DurNS,
	// which here predates the begin event's emission.
	if ev[1].DurNS != (5 * time.Millisecond).Nanoseconds() {
		t.Errorf("end DurNS = %d", ev[1].DurNS)
	}
	if ev[1].TNS+ev[1].DurNS < ev[0].TNS {
		t.Errorf("end of span (%d) before begin stamp (%d)", ev[1].TNS+ev[1].DurNS, ev[0].TNS)
	}
}

func TestBoundedCapacityCountsDrops(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Emit(Detect(NewFaultKey(i, -1, -1, 0), i))
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	if r.Capacity() != 4 {
		t.Errorf("Capacity = %d, want 4", r.Capacity())
	}
}

func TestConcurrentEmit(t *testing.T) {
	r := New(1 << 12)
	var wg sync.WaitGroup
	const workers, per = 8, 400
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(Batch("pool", w, i, per, time.Microsecond))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Len() + int(r.Dropped()); got != workers*per {
		t.Errorf("recorded+dropped = %d, want %d", got, workers*per)
	}
}

func TestObserverSeesEveryEvent(t *testing.T) {
	r := New(2) // smaller than the emission count: subscribers still see all
	var n int
	var mu sync.Mutex
	cancel := r.Subscribe(func(Event) { mu.Lock(); n++; mu.Unlock() })
	for i := 0; i < 5; i++ {
		r.Emit(Note("x"))
	}
	if n != 5 {
		t.Errorf("subscriber saw %d events, want 5", n)
	}
	cancel()
	cancel() // idempotent
	r.Emit(Note("y"))
	if n != 5 {
		t.Error("canceled subscriber still called")
	}
}

// TestSubscribersSeeEmissionOrder: every subscriber sees every event,
// stored or dropped, in emission order, and a cancel detaches only its
// own subscriber.
func TestSubscribersSeeEmissionOrder(t *testing.T) {
	r := New(3)
	var a, b []int64
	cancelA := r.Subscribe(func(e Event) { a = append(a, e.A) })
	r.Subscribe(func(e Event) { b = append(b, e.A) })
	for i := 0; i < 6; i++ {
		r.Emit(Detect(FaultKey(i), 0))
	}
	want := []int64{0, 1, 2, 3, 4, 5}
	if !slices.Equal(a, want) || !slices.Equal(b, want) {
		t.Fatalf("subscribers saw %v and %v, want %v each", a, b, want)
	}
	if r.Len() != 3 || r.Dropped() != 3 {
		t.Fatalf("stored %d, dropped %d; want 3 and 3", r.Len(), r.Dropped())
	}
	cancelA()
	r.Emit(Detect(FaultKey(6), 0))
	if len(a) != 6 || !slices.Equal(b, append(want, 6)) {
		t.Errorf("after canceling the first subscriber: first saw %v, second %v", a, b)
	}
}

// TestSubscribeConcurrentWithEmit exercises the copy-on-write list
// under the race detector: emitters run while subscribers come and go.
func TestSubscribeConcurrentWithEmit(t *testing.T) {
	r := New(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Emit(Note("x"))
			}
		}()
	}
	var calls atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cancel := r.Subscribe(func(Event) { calls.Add(1) })
				cancel()
			}
		}()
	}
	wg.Wait()
	if got := r.Len() + int(r.Dropped()); got != 2000 {
		t.Errorf("recorded+dropped = %d, want 2000", got)
	}
	if len(r.subs) != 0 {
		t.Errorf("%d subscribers left after every cancel", len(r.subs))
	}
}

func TestFaultKeyRoundTrip(t *testing.T) {
	cases := []struct {
		signal, gate, pin int
		stuck             uint8
	}{
		{0, -1, -1, 0},           // stem s-a-0 on signal 0
		{17, -1, -1, 1},          // stem s-a-1
		{12345, 678, 3, 1},       // branch fault
		{1 << 23, 1 << 22, 7, 0}, // near the packing bounds
	}
	for _, c := range cases {
		fk := NewFaultKey(c.signal, c.gate, c.pin, c.stuck)
		s, g, p, v := fk.Unpack()
		if s != c.signal || g != c.gate || p != c.pin || v != c.stuck {
			t.Errorf("round trip %+v -> (%d,%d,%d,%d)", c, s, g, p, v)
		}
	}
}

func TestLocChainSegRoundTrip(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {3, 17}, {12, 1 << 20}} {
		chain, seg := UnpackLoc(LocChainSeg(c[0], c[1]))
		if chain != c[0] || seg != c[1] {
			t.Errorf("loc round trip %v -> (%d,%d)", c, chain, seg)
		}
	}
}

// chunkBoundaries lists event counts on and around every chunk boundary
// a recorder of the given limit crosses; the last boundary is the limit.
func chunkBoundaries(limit int) []int {
	counts := []int{0, 1}
	for end, size := 0, firstChunk; end < limit; size = min(2*size, maxChunk) {
		end += min(size, limit-end)
		counts = append(counts, end-1, end, end+1)
	}
	return counts
}

// TestChunkedStorageMatchesFlatReference grows recorders through every
// chunk boundary up to and past their limit, checking Snapshot and
// Since against a flat slice of the events the subscriber saw stored, and
// that Capacity stays the limit (New(0) selecting DefaultCapacity).
func TestChunkedStorageMatchesFlatReference(t *testing.T) {
	for _, limit := range []int{4, 300, 5000, DefaultCapacity} {
		arg := limit
		if limit == DefaultCapacity {
			arg = 0
		}
		r := New(arg)
		var ref []Event
		seen := 0 // the subscriber sees dropped events too
		r.Subscribe(func(e Event) {
			if seen++; len(ref) < limit {
				ref = append(ref, e)
			}
		})
		checkSince := func(n, i int) {
			t.Helper()
			got, lo := r.Since(i), max(i, 0)
			if lo >= len(ref) {
				if got != nil {
					t.Fatalf("limit %d, %d emits: Since(%d) = %d events, want nil", limit, n, i, len(got))
				}
				return
			}
			if !slices.Equal(got, ref[lo:]) {
				t.Fatalf("limit %d, %d emits: Since(%d) differs from the flat reference", limit, n, i)
			}
		}
		counts := chunkBoundaries(limit)
		n := 0
		for _, c := range counts {
			for ; n < c; n++ {
				r.Emit(Detect(NewFaultKey(n, -1, -1, 0), n))
			}
			if !slices.Equal(r.Snapshot(), ref) || r.Len() != len(ref) {
				t.Fatalf("limit %d, %d emits: Snapshot/Len differ from the flat reference (%d events)",
					limit, n, len(ref))
			}
			if want := int64(n - len(ref)); r.Dropped() != want || seen != n {
				t.Fatalf("limit %d, %d emits: Dropped = %d, want %d; subscriber saw %d",
					limit, n, r.Dropped(), want, seen)
			}
			for _, i := range []int{-1, 0, n - 1, n, n + 1} {
				checkSince(n, i)
			}
		}
		if len(ref) != limit || r.Capacity() != limit {
			t.Fatalf("limit %d: stored %d, Capacity %d", limit, len(ref), r.Capacity())
		}
		for _, i := range counts {
			checkSince(n, i)
		}
	}
}

// TestConcurrentEmitAndSince races emitters against incremental readers
// across several chunk boundaries (run it under -race): every reader's
// cursor walk must see each stored event exactly once, in order.
func TestConcurrentEmitAndSince(t *testing.T) {
	const workers, per = 4, 1500
	r := New(5000) // emits overflow the limit too
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(Batch("pool", w, i, per, 0))
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for k := 0; k < 2; k++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			next := make([]int64, workers) // per-worker next expected item
			cursor := 0
			for {
				// Every Emit happens before done closes, so the read
				// that follows seeing it closed is the final one.
				finished := false
				select {
				case <-done:
					finished = true
				default:
				}
				evs := r.Since(cursor)
				for _, e := range evs {
					if e.A != next[e.Worker] {
						t.Errorf("worker %d: item %d after %d", e.Worker, e.A, next[e.Worker]-1)
						return
					}
					next[e.Worker]++
				}
				cursor += len(evs)
				if finished {
					if cursor != r.Len() {
						t.Errorf("reader stopped at %d of %d events", cursor, r.Len())
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if r.Len() != 5000 || r.Dropped() != workers*per-5000 {
		t.Errorf("Len %d Dropped %d", r.Len(), r.Dropped())
	}
}

// TestNewAllocatesWhatItRecords guards the lazy growth: a default
// recorder holding a handful of events costs one small chunk, not the
// 64Ki-event capacity.
func TestNewAllocatesWhatItRecords(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		r := New(0)
		for k := 0; k < 8; k++ {
			r.Emit(Note("x"))
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("New(0) + 8 events allocates %d bytes, want < 64 KiB", per)
	}
}
