package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
)

func testCircuit(t *testing.T, seed int64) *netlist.Circuit {
	t.Helper()
	return gen.Generate(gen.Profile{Name: "engt", PIs: 6, POs: 5, FFs: 10, Gates: 120}, seed)
}

// andCircuit builds the minimal two-input circuit the mutation tests
// grow: a single AND driving the only output.
func andCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("mut")
	a, _ := c.AddInput("a")
	b, _ := c.AddInput("b")
	g, err := c.AddGate("g", logic.OpAnd, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput(g); err != nil {
		t.Fatal(err)
	}
	c.MustFinalize()
	return c
}

func TestCacheSharesArtifacts(t *testing.T) {
	c := testCircuit(t, 1)
	ca := New()
	a1 := ca.For(c)
	a2 := ca.For(c)
	if a1 != a2 {
		t.Fatal("second For returned a different Artifacts value")
	}
	if a1.Program(nil) != a2.Program(nil) {
		t.Error("Program not shared")
	}
	f1, f2 := a1.CollapsedFaults(), a2.CollapsedFaults()
	if len(f1) == 0 || &f1[0] != &f2[0] {
		t.Error("CollapsedFaults not shared")
	}
	cm1, err := a1.CombModel()
	if err != nil {
		t.Fatal(err)
	}
	cm2, _ := a2.CombModel()
	if cm1 != cm2 {
		t.Error("CombModel not shared")
	}
	if ca.Len() != 1 {
		t.Errorf("Len = %d, want 1", ca.Len())
	}
	if a1.Circuit() != c || a1.Hash() != c.StructuralHash() {
		t.Error("Artifacts identity mismatch")
	}
}

// TestCacheConcurrentSingleCompile pins the tentpole accounting claim:
// any number of workers racing For(...).Program(...) share exactly one
// compilation.
func TestCacheConcurrentSingleCompile(t *testing.T) {
	c := testCircuit(t, 2)
	ca := New()
	col := obs.New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ca.For(c).Program(col)
		}()
	}
	wg.Wait()
	if got := col.Snapshot().Counters["sim.compile.count"]; got != 1 {
		t.Errorf("sim.compile.count = %d, want 1", got)
	}
}

func TestCacheInvalidateOnMutation(t *testing.T) {
	c := andCircuit(t)
	ca := New()
	a1 := ca.For(c)
	h1 := a1.Hash()

	// Mutate the cached circuit: its hash changes, so the next For must
	// yield fresh artifacts under the new key.
	x, _ := c.AddInput("x")
	g2, err := c.AddGate("g2", logic.OpOr, x, c.Inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput(g2); err != nil {
		t.Fatal(err)
	}
	c.MustFinalize()
	if c.StructuralHash() == h1 {
		t.Fatal("mutation did not change the structural hash")
	}
	a2 := ca.For(c)
	if a2 == a1 {
		t.Fatal("mutated circuit served stale artifacts")
	}
	if a2.Hash() != c.StructuralHash() {
		t.Error("new artifacts keyed by stale hash")
	}

	// Stale-entry guard: a different circuit with the ORIGINAL structure
	// hashes to h1, where the cache still holds artifacts whose circuit
	// has since mutated away. It must rebuild, not serve them.
	c2 := andCircuit(t)
	if c2.StructuralHash() != h1 {
		t.Fatal("reconstruction does not hash like the original")
	}
	a3 := ca.For(c2)
	if a3 == a1 {
		t.Fatal("stale entry served for a new circuit with the old hash")
	}
	if a3.Circuit() != c2 {
		t.Error("artifacts bound to the wrong circuit")
	}
	// And the freshly rebuilt entry is now served normally.
	if ca.For(c2) != a3 {
		t.Error("rebuilt entry not cached")
	}
}

func TestCacheBypass(t *testing.T) {
	c := testCircuit(t, 3)
	ca := Bypass()
	a1 := ca.For(c)
	a2 := ca.For(c)
	if a1 == a2 {
		t.Fatal("bypass cache memoized")
	}
	if ca.Len() != 0 {
		t.Errorf("bypass cache holds %d entries, want 0", ca.Len())
	}
	// Artifacts still memoize within themselves.
	if a1.Program(nil) != a1.Program(nil) {
		t.Error("bypass artifacts recompiled")
	}
}

func TestCacheEviction(t *testing.T) {
	ca := New()
	first := andCircuit(t)
	ca.For(first)
	// Push DefaultMaxEntries further distinct structures through the
	// cache.
	for i := 0; i < DefaultMaxEntries; i++ {
		c := netlist.New("ev")
		in, _ := c.AddInput("a")
		prev := in
		for j := 0; j <= i; j++ {
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
		ca.For(c)
	}
	if got := ca.Len(); got > DefaultMaxEntries {
		t.Errorf("cache grew to %d entries, bound is %d", got, DefaultMaxEntries)
	}
}

func TestResolve(t *testing.T) {
	if Resolve(nil) != Default() {
		t.Error("Resolve(nil) != Default()")
	}
	ca := New()
	if Resolve(ca) != ca {
		t.Error("Resolve dropped an explicit cache")
	}
}

func TestCombSearchMemoized(t *testing.T) {
	c := testCircuit(t, 4)
	a := New().For(c)
	fixed := map[netlist.SignalID]logic.V{c.Inputs[0]: logic.One, c.Inputs[1]: logic.Zero}
	m1, t1, err := a.CombSearch(fixed)
	if err != nil {
		t.Fatal(err)
	}
	// An equal assignment built independently (different map value, and
	// map iteration order is free to differ) must hit the same entry.
	same := map[netlist.SignalID]logic.V{c.Inputs[1]: logic.Zero, c.Inputs[0]: logic.One}
	m2, t2, err := a.CombSearch(same)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 || t1 != t2 {
		t.Error("equal fixed assignments did not share the search artifacts")
	}
	// A different assignment must not.
	other := map[netlist.SignalID]logic.V{c.Inputs[0]: logic.Zero}
	m3, _, err := a.CombSearch(other)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Error("distinct fixed assignments shared a model")
	}
}

func TestResolveAuto(t *testing.T) {
	small := testCircuit(t, 5)
	if got := Auto.ResolveSeq(small, 1); got != Compiled {
		t.Errorf("small circuit resolved to %v, want compiled", got)
	}
	if got := Hybrid.ResolveSeq(small, 1); got != Hybrid {
		t.Errorf("forced backend rewritten to %v", got)
	}
	// A one-fault confirmation run on a large sequential circuit stays
	// on the compiled sweep.
	mid := gen.Generate(gen.Profile{Name: "engm", PIs: 8, POs: 6, FFs: 64, Gates: 2100}, 3)
	if len(mid.Order) < 2048 {
		t.Fatalf("test circuit has %d signals, want >= 2048", len(mid.Order))
	}
	if got := Auto.ResolveSeq(mid, 1); got != Compiled {
		t.Errorf("1-lane run on a %d-signal circuit resolved to %v, want compiled", len(mid.Order), got)
	}
	// Full-width passes on large sequential circuits take the hybrid
	// strategy; a one-fault run on the same circuit stays compiled.
	large := gen.Generate(gen.Profile{Name: "engl", PIs: 8, POs: 6, FFs: 64, Gates: 4200}, 3)
	if got := Auto.ResolveSeq(large, 63); got != Hybrid {
		t.Errorf("large sequential full-width resolved to %v, want hybrid", got)
	}
	if got := Auto.ResolveSeq(large, 1); got != Compiled {
		t.Errorf("large sequential 1-lane resolved to %v, want compiled", got)
	}
	if got := Auto.ResolveSeq(small, 63); got != Compiled {
		t.Errorf("small full-width resolved to %v, want compiled", got)
	}
}
