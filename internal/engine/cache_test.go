package engine

import (
	"fmt"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// chainCircuit builds a distinct finalized inverter chain of the given
// depth (depth also differentiates the structural hash).
func chainCircuit(t *testing.T, depth int) *netlist.Circuit {
	t.Helper()
	c := netlist.New("lru")
	in, _ := c.AddInput("a")
	prev := in
	for j := 0; j < depth; j++ {
		g, err := c.AddGate(fmt.Sprintf("n%d", j), logic.OpNot, prev)
		if err != nil {
			t.Fatal(err)
		}
		prev = g
	}
	if err := c.MarkOutput(prev); err != nil {
		t.Fatal(err)
	}
	c.MustFinalize()
	return c
}

func TestCacheLRUOrder(t *testing.T) {
	ca := New()
	ca.maxEntries = 2
	c1 := chainCircuit(t, 1)
	c2 := chainCircuit(t, 2)
	c3 := chainCircuit(t, 3)

	a1 := ca.For(c1)
	ca.For(c2)
	// Touch c1 so c2 becomes the LRU tail, then insert c3.
	if got := ca.For(c1); got != a1 {
		t.Fatal("c1 not served from cache")
	}
	ca.For(c3)

	if ca.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ca.Len())
	}
	// c1 must have survived (recently used), c2 must be gone.
	if got := ca.For(c1); got != a1 {
		t.Error("LRU evicted the recently used entry")
	}
	st := ca.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions counted")
	}
}

func TestCacheByteBudget(t *testing.T) {
	ca := New()
	// Insert three structures, materialize programs so sizes are real.
	var arts []*Artifacts
	for i := 1; i <= 3; i++ {
		a := ca.For(chainCircuit(t, i))
		a.Program(nil)
		arts = append(arts, a)
	}
	st := ca.Stats()
	if st.Entries != 3 || st.Bytes <= 0 {
		t.Fatalf("Stats = %+v, want 3 entries with positive bytes", st)
	}

	// Budget that fits roughly one entry: the next probe must evict
	// down to the served entry.
	ca.SetBudget(arts[2].SizeBytes())
	ca.For(arts[2].Circuit())
	st = ca.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries after budget squeeze = %d, want 1", st.Entries)
	}
	if st.Bytes > st.Budget {
		t.Errorf("accounted %d bytes exceeds budget %d", st.Bytes, st.Budget)
	}

	// The surviving entry is never evicted even if it alone exceeds the
	// budget.
	ca.SetBudget(1)
	a := ca.For(arts[2].Circuit())
	if a != arts[2] {
		t.Error("served entry was evicted under its own budget")
	}
	if ca.Len() != 1 {
		t.Errorf("Len = %d, want 1 (keep the served entry)", ca.Len())
	}
}

func TestCacheBudgetTracksLazyGrowth(t *testing.T) {
	ca := New()
	c := chainCircuit(t, 4)
	a := ca.For(c)
	base := ca.Stats().Bytes
	// Materialize more artifacts; the next Stats resync must see them.
	a.Program(nil)
	a.CollapsedFaults()
	a.Cones(nil)
	grown := ca.Stats().Bytes
	if grown <= base {
		t.Errorf("accounted bytes did not grow: %d -> %d", base, grown)
	}
	if grown != a.SizeBytes() {
		t.Errorf("accounted %d != artifact size %d", grown, a.SizeBytes())
	}
}

func TestForObsDedupesRepeatedProbes(t *testing.T) {
	ca := New()
	col := obs.New()
	c := chainCircuit(t, 2)

	// One job probing the same structure many times: one miss, no hits.
	for i := 0; i < 5; i++ {
		ca.ForObs(c, col)
	}
	snap := col.Snapshot()
	if got := snap.Counters["engine.cache.probes"]; got != 5 {
		t.Errorf("probes = %d, want 5", got)
	}
	if got := snap.Counters["engine.cache.misses"]; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := snap.Counters["engine.cache.hits"]; got != 0 {
		t.Errorf("hits = %d, want 0", got)
	}

	// A second collector (a second job) probing the warm structure
	// counts exactly one hit.
	col2 := obs.New()
	ca.ForObs(c, col2)
	ca.ForObs(c, col2)
	snap2 := col2.Snapshot()
	if got := snap2.Counters["engine.cache.hits"]; got != 1 {
		t.Errorf("second-collector hits = %d, want 1", got)
	}
	if got := snap2.Counters["engine.cache.misses"]; got != 0 {
		t.Errorf("second-collector misses = %d, want 0", got)
	}
}

func TestEvictedArtifactsStayUsable(t *testing.T) {
	ca := New()
	ca.maxEntries = 1
	a1 := ca.For(chainCircuit(t, 1))
	ca.For(chainCircuit(t, 2)) // evicts a1's entry
	if ca.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ca.Len())
	}
	// a1 is still fully functional for a job that held on to it.
	if a1.Program(nil) == nil || len(a1.CollapsedFaults()) == 0 {
		t.Error("evicted artifacts unusable")
	}
}
