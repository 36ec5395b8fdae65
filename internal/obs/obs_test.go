package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

func TestNilCollectorIsValidSink(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector must report disabled")
	}
	// Every operation must be a no-op, not a panic.
	c.Notef("ignored %d", 1)
	ctr := c.Counter("x")
	ctr.Add(5)
	ctr.Inc()
	if ctr.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	h := c.Histogram("h")
	h.Observe(42)
	sp := c.Phase("p")
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End = %v, want 0", d)
	}
	c.RecordPool("pool", time.Second, []WorkerStat{{Busy: time.Second, Items: 1}})
	if c.Snapshot() != nil {
		t.Fatal("nil collector snapshot must be nil")
	}
	if c.CounterNames() != nil {
		t.Fatal("nil collector has no counter names")
	}
}

func TestCountersAndHistogram(t *testing.T) {
	c := New()
	a := c.Counter("a")
	a.Add(3)
	a.Inc()
	if c.Counter("a") != a {
		t.Fatal("Counter must return the same instance per name")
	}
	if got := a.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	h := c.Histogram("bt")
	for _, v := range []int64{0, 1, 2, 3, 100, -7} {
		h.Observe(v)
	}
	m := c.Snapshot()
	if m.Counters["a"] != 4 {
		t.Fatalf("snapshot counter = %d, want 4", m.Counters["a"])
	}
	hm := m.Histograms["bt"]
	if hm.Count != 6 || hm.Sum != 106 || hm.Max != 100 {
		t.Fatalf("histogram summary = %+v", hm)
	}
	var n int64
	for _, b := range hm.Buckets {
		n += b.Count
	}
	if n != 6 {
		t.Fatalf("bucket counts sum to %d, want 6", n)
	}
	// 0 and the clamped -7 land in the v == 0 bucket (le 0).
	if hm.Buckets[0].Le != 0 || hm.Buckets[0].Count != 2 {
		t.Fatalf("zero bucket = %+v", hm.Buckets[0])
	}
}

func TestHistogramQuantiles(t *testing.T) {
	c := New()
	h := c.Histogram("q")
	// 100 observations 1..100: quantiles are known up to bucket
	// resolution (power-of-two buckets interpolate within a factor of 2).
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	hm := c.Snapshot().Histograms["q"]
	if hm.P50 <= 0 || hm.P95 <= 0 || hm.P99 <= 0 {
		t.Fatalf("snapshot did not fill quantiles: %+v", hm)
	}
	if hm.P50 > hm.P95 || hm.P95 > hm.P99 {
		t.Fatalf("quantiles not monotone: p50=%d p95=%d p99=%d", hm.P50, hm.P95, hm.P99)
	}
	// True p50 = 50; the containing bucket is [32,63].
	if hm.P50 < 32 || hm.P50 > 63 {
		t.Errorf("p50 = %d, want within its bucket [32,63]", hm.P50)
	}
	// True p99 = 99; the containing bucket [64,127] is clamped to Max.
	if hm.P99 < 64 || hm.P99 > 100 {
		t.Errorf("p99 = %d, want within [64,100]", hm.P99)
	}
	if got := hm.Quantile(1.0); got != 100 {
		t.Errorf("Quantile(1.0) = %d, want the max 100", got)
	}

	// Exact cases: a single-value histogram hits that value at every q.
	c2 := New()
	c2.Histogram("one").Observe(7)
	one := c2.Snapshot().Histograms["one"]
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 7 {
			t.Errorf("single-value Quantile(%g) = %d, want 7", q, got)
		}
	}

	// Degenerate inputs return 0 rather than panicking.
	var empty HistogramMetric
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	if got := one.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %d, want 0", got)
	}
}

func TestPhasesAndPools(t *testing.T) {
	c := New()
	sp := c.Phase("screen")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatal("phase duration must be positive")
	}
	if again := sp.End(); again != d {
		t.Fatalf("End not idempotent: %v then %v", d, again)
	}
	open := c.Phase("step2") // left open on purpose
	_ = open
	c.RecordPool("faultsim", 10*time.Millisecond, []WorkerStat{
		{Busy: 8 * time.Millisecond, Items: 5},
		{Busy: 6 * time.Millisecond, Items: 3},
	})
	c.RecordPool("faultsim", 10*time.Millisecond, []WorkerStat{
		{Busy: 10 * time.Millisecond, Items: 7},
	})
	m := c.Snapshot()
	if len(m.Phases) != 2 || m.Phases[0].Name != "screen" || m.Phases[1].Name != "step2" {
		t.Fatalf("phases = %+v", m.Phases)
	}
	if m.Phases[1].WallNS <= 0 {
		t.Fatal("open phase must report wall time so far")
	}
	p := m.Pools["faultsim"]
	if p.Calls != 2 || len(p.Workers) != 2 {
		t.Fatalf("pool = %+v", p)
	}
	if p.Workers[0].Items != 12 || p.Workers[1].Items != 3 {
		t.Fatalf("worker merge wrong: %+v", p.Workers)
	}
	// utilization = 24ms busy / (20ms wall * 2 workers) = 0.6
	if p.Utilization < 0.55 || p.Utilization > 0.65 {
		t.Fatalf("utilization = %f, want ~0.6", p.Utilization)
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New()
	ctr := c.Counter("n")
	h := c.Histogram("h")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ctr.Inc()
				h.Observe(int64(i))
				c.Counter("n").Inc()
			}
		}()
	}
	wg.Wait()
	if got := ctr.Value(); got != 16000 {
		t.Fatalf("counter = %d, want 16000", got)
	}
	if got := c.Snapshot().Histograms["h"].Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// TestNotef: a note reaches the journal as exactly one KindNote event
// when a recorder is attached, and costs nothing without one.
func TestNotef(t *testing.T) {
	c := New()
	if n := testing.AllocsPerRun(100, func() { c.Notef("ignored %s", "x") }); n != 0 {
		t.Errorf("Notef without a journal allocates %v per call, want 0", n)
	}
	rec := journal.New(0)
	c.SetJournal(rec)
	c.Notef("screen: %d faults", 12)
	ev := rec.Snapshot()
	if len(ev) != 1 || ev[0].Kind != journal.KindNote || ev[0].Arg != "screen: 12 faults" {
		t.Fatalf("journal after Notef = %+v, want one note %q", ev, "screen: 12 faults")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	c := New()
	c.Counter("screen.easy").Add(10)
	c.Phase("screen").End()
	c.Histogram("atpg.backtracks").Observe(17)
	c.RecordPool("screen", time.Millisecond, []WorkerStat{{Busy: time.Millisecond, Items: 4}})
	raw, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["screen.easy"] != 10 || len(back.Phases) != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Histograms["atpg.backtracks"].Sum != 17 {
		t.Fatalf("histogram lost: %+v", back.Histograms)
	}
}

func TestCounterNamesSorted(t *testing.T) {
	c := New()
	c.Counter("b")
	c.Counter("a")
	c.Counter("c")
	names := c.CounterNames()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("names = %v", names)
	}
}

func TestPublishAndServeDebug(t *testing.T) {
	c := New()
	c.Counter("x").Add(7)
	Publish(c)
	// Replacing and clearing must not panic (expvar re-publish guard).
	Publish(New())
	Publish(c)
	srv, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer srv.Close()
	if srv.Addr == "" || strings.HasSuffix(srv.Addr, ":0") {
		t.Fatalf("server Addr %q does not carry the bound port", srv.Addr)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", srv.Addr))
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "fsct_metrics") {
		t.Error("/debug/vars does not export the published collector")
	}
}

// TestServeDebugClose: closing the returned server frees the listener,
// so tests and long-lived processes can tear the debug surface down
// instead of leaking it for the life of the process.
func TestServeDebugClose(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	addr := srv.Addr
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The port is free again: binding it anew must succeed. The release
	// happens on the background Serve goroutine, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv2, err := ServeDebug(addr)
		if err == nil {
			srv2.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s after Close: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}
