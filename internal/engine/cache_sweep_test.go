package engine

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// sweepCircuit generates one of the sweep's distinct mid-size circuits
// (distinct name + seed => distinct structural hash and artifacts).
func sweepCircuit(i int) *netlist.Circuit {
	return gen.Generate(gen.Profile{
		Name: fmt.Sprintf("swp%d", i), PIs: 8, POs: 6, FFs: 32, Gates: 1200,
	}, int64(100+i))
}

// touch probes the cache for c and materializes the fault-simulation
// working set (compiled program, collapsed faults, fanout cones) the
// way a screening or fault-sim job would.
func touch(t *testing.T, ca *Cache, c *netlist.Circuit) {
	t.Helper()
	a := ca.For(c)
	if a.Program(nil) == nil {
		t.Fatal("compile failed")
	}
	a.CollapsedFaults()
	a.Cones(nil)
}

// TestCacheBudgetSweep measures cache hit rate and evictions as a
// function of the byte budget, the table EXPERIMENTS.md publishes
// ("Cache hit rate vs byte budget"):
//
//	go test -run TestCacheBudgetSweep -v ./internal/engine/
//
// The workload models a daemon serving a mix of tenants: 2 hot
// circuits probed every round plus a round-robin tail of 6 cold
// circuits, 24 rounds. Per-entry size is measured first, so budgets
// are expressed in working-set multiples and the table stays
// meaningful if artifact sizes drift. The counts are deterministic, so
// the three published regimes are asserted: a budget holding every
// entry behaves as unbounded, 3-4 entries keep the hot set resident,
// and at the hot-set size or below the cold tail thrashes it.
func TestCacheBudgetSweep(t *testing.T) {
	const nHot, nCold, rounds = 2, 6, 24
	circuits := make([]*netlist.Circuit, nHot+nCold)
	for i := range circuits {
		circuits[i] = sweepCircuit(i)
	}

	// Measure one entry's materialized footprint.
	probe := New()
	touch(t, probe, circuits[0])
	perEntry := probe.Stats().Bytes
	total := perEntry * int64(len(circuits))
	t.Logf("per-entry working set: %d bytes; %d circuits (%d hot + %d cold); total %d bytes",
		perEntry, len(circuits), nHot, nCold, total)

	// Every hot probe after each hot circuit's cold start.
	const hotHits = nHot * (rounds - 1)
	budgets := []struct {
		label   string
		entries int // budget in entries; 0 = unbounded
	}{
		{"unbounded", 0},
		{"8 entries (= all)", nHot + nCold},
		{"4 entries", 4},
		{"3 entries", 3},
		{"2 entries (= hot set)", nHot},
		{"1 entry", 1},
	}
	t.Logf("%-22s %8s %8s %9s %10s %8s",
		"BUDGET", "HITS", "MISSES", "HIT-RATE", "EVICTIONS", "RESIDENT")
	for _, b := range budgets {
		ca := New()
		ca.SetBudget(perEntry * int64(b.entries))
		for r := 0; r < rounds; r++ {
			for h := 0; h < nHot; h++ {
				touch(t, ca, circuits[h])
			}
			touch(t, ca, circuits[nHot+r%nCold])
		}
		st := ca.Stats()
		t.Logf("%-22s %8d %8d %8.1f%% %10d %8d",
			b.label, st.Hits, st.Misses,
			100*float64(st.Hits)/float64(st.Hits+st.Misses),
			st.Evictions, st.Entries)

		switch {
		case b.entries == 0 || b.entries >= nHot+nCold:
			if st.Misses != nHot+nCold || st.Evictions != 0 {
				t.Errorf("%s: %d misses, %d evictions; want %d cold misses and no eviction, as unbounded",
					b.label, st.Misses, st.Evictions, nHot+nCold)
			}
		case b.entries > nHot:
			if st.Hits != hotHits {
				t.Errorf("%s: %d hits, want %d (every hot probe after cold start)", b.label, st.Hits, hotHits)
			}
		default:
			if st.Hits != 0 {
				t.Errorf("%s: %d hits, want 0 (the cold tail evicts the hot set)", b.label, st.Hits)
			}
		}
		if b.entries > 0 && st.Entries > b.entries {
			t.Errorf("%s: %d entries resident over a %d-entry budget", b.label, st.Entries, b.entries)
		}
	}
}
