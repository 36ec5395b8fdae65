package fsct

import (
	"context"
	"testing"
	"time"

	"repro/internal/faultsim"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/par"
)

// Package-level nil sinks, so the compiler cannot fold the nil checks
// away the way it could for a literal nil at the call site.
var (
	offCollector *obs.Collector
	offSpan      *obs.Span
	offCounter   *obs.Counter
	offHistogram *obs.Histogram
	offRecorder  *journal.Recorder
)

// maxEnabledExtraAllocs bounds what an enabled collector without a
// journal may allocate over the nil collector in one screening or
// fault-simulation run. The enabled tier resolves its counters,
// histograms, phase and pool once per run (a few dozen allocations);
// anything proportional to the fault list (there are ~105 63-fault
// batches at scale 0.08, so a per-batch cost adds more than 100)
// breaks the bound. The extra count is not exact: repeated runs of one
// tree read +20 to +27 for screening and +26 to +31 for fault
// simulation, which the bound leaves room for.
const maxEnabledExtraAllocs = 64

// TestObsDisabledIsFree pins the observability layer's off-tier
// contract: disabled instrumentation (the nil collector, the library
// default) costs the hot paths nothing but nil checks, and an enabled
// collector without a journal pays once per run, never per batch. A
// recorder's Emit allocates nothing even with live subscribers.
// Allocation counts vary far less than wall times do, and the bounds
// hold on any hardware. The CPU-time view of the same tiers is
// BenchmarkObsOverhead* under benchstat.
func TestObsDisabledIsFree(t *testing.T) {
	t.Run("nil sinks allocate nothing", func(t *testing.T) {
		stats := []obs.WorkerStat{{Busy: time.Millisecond, Items: 1}}
		sinks := []struct {
			name string
			call func()
		}{
			{"Collector.Counter", func() { offCollector.Counter("guard") }},
			{"Collector.Histogram", func() { offCollector.Histogram("guard") }},
			{"Collector.Phase", func() { offCollector.Phase("guard") }},
			{"Collector.Journal", func() { offCollector.Journal() }},
			{"Collector.RecordPool", func() { offCollector.RecordPool("guard", time.Millisecond, stats) }},
			{"Collector.MarkOnce", func() { offCollector.MarkOnce("guard") }},
			{"Span.End", func() { offSpan.End() }},
			{"Counter.Add", func() { offCounter.Add(1) }},
			{"Histogram.Observe", func() { offHistogram.Observe(7) }},
			{"Recorder.Emit", func() { offRecorder.Emit(journal.Batch("guard", 0, 1, 2, time.Millisecond)) }},
		}
		for _, s := range sinks {
			if n := testing.AllocsPerRun(100, s.call); n != 0 {
				t.Errorf("nil %s allocates %v per call, want 0", s.name, n)
			}
		}
	})

	t.Run("subscribed Emit allocates nothing", func(t *testing.T) {
		rec := journal.New(0)
		var first, second int
		rec.Subscribe(func(journal.Event) { first++ })
		rec.Subscribe(func(journal.Event) { second++ })
		ev := journal.Batch("guard", 0, 1, 2, time.Millisecond)
		rec.Emit(ev) // allocate the first chunk outside the measurement
		if n := testing.AllocsPerRun(100, func() { rec.Emit(ev) }); n != 0 {
			t.Errorf("Emit with two subscribers allocates %v per call, want 0", n)
		}
		if first == 0 || first != second {
			t.Errorf("subscribers saw %d and %d events, want the same nonzero count", first, second)
		}
	})

	t.Run("nil-collector pool costs plain DoCtx", func(t *testing.T) {
		ctx := context.Background()
		out := make([]int, 256)
		work := func(_, i int) { out[i]++ }
		for _, workers := range []int{1, 4} {
			plain := testing.AllocsPerRun(100, func() { par.DoCtx(ctx, workers, len(out), work) })
			pooled := testing.AllocsPerRun(100, func() {
				par.DoPoolCtx(ctx, workers, len(out), "guard", offCollector, work)
			})
			if pooled != plain {
				t.Errorf("workers=%d: DoPoolCtx with a nil collector allocates %v, DoCtx %v", workers, pooled, plain)
			}
		}
	})

	t.Run("enabled cost is per run", func(t *testing.T) {
		for _, scale := range []float64{0.02, 0.08} {
			c := GenerateCircuit(MustProfile("s38584").Scale(scale), 1)
			d, err := InsertScan(c, ScanOptions{NumChains: DefaultChains(len(c.FFs)), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			faults := CollapsedFaults(d.C)
			seq := faultsim.Sequence(d.AlternatingSequence(8))
			runs := []struct {
				name string
				run  func(col *Collector)
			}{
				{"ScreenFaultsCtx", func(col *Collector) {
					ScreenFaultsCtx(context.Background(), d, faults, ScreenOptions{Workers: 1, Obs: col})
				}},
				{"faultsim.RunCtx", func(col *Collector) {
					faultsim.RunCtx(context.Background(), d.C, seq, faults, faultsim.Options{Workers: 1, Obs: col})
				}},
			}
			for _, r := range runs {
				name, run := r.name, r.run
				off := testing.AllocsPerRun(1, func() { run(offCollector) })
				on := testing.AllocsPerRun(1, func() { run(NewCollector()) })
				t.Logf("s38584@%g (%d faults) %s: off %v allocs, on %v (+%v)",
					scale, len(faults), name, off, on, on-off)
				if on-off > maxEnabledExtraAllocs {
					t.Errorf("s38584@%g %s: an enabled collector adds %v allocations per run over the nil collector, want <= %d",
						scale, name, on-off, maxEnabledExtraAllocs)
				}
			}
		}
	})
}
