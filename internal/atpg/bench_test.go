package atpg_test

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/task"
	"repro/internal/tpi"
)

// hardFault is the index, in s38417@0.07's collapsed fault list, of
// g498 s-a-0: one of the step-3 final-pass faults on which PODEM
// exhausts the final-pass backtrack limit on the scan-mode model.
const hardFault = 1091

var benchResult atpg.Result

// BenchmarkPodemHardFault runs one final-pass abort to the flow's
// 25 000-backtrack budget, the case that fills most of step 3 on the
// largest suite circuits, and reports the cost of one backtrack.
func BenchmarkPodemHardFault(b *testing.B) {
	p, err := gen.ProfileByName("s38417")
	if err != nil {
		b.Fatal(err)
	}
	c := gen.Generate(p.Scale(0.07), 1)
	d, err := tpi.Insert(c, tpi.Options{NumChains: task.DefaultChains(len(c.FFs)), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cm, err := atpg.BuildCombModel(d.C)
	if err != nil {
		b.Fatal(err)
	}
	fixed := make(map[netlist.SignalID]logic.V, len(d.Assignments))
	for k, v := range d.Assignments {
		fixed[k] = v
	}
	m, err := atpg.NewModel(cm.C, fixed)
	if err != nil {
		b.Fatal(err)
	}
	e := atpg.NewEngine(m)
	f := cm.MapFault(fault.Collapsed(d.C)[hardFault])
	b.ResetTimer()
	backtracks := 0
	for i := 0; i < b.N; i++ {
		benchResult, _ = e.GenerateCtx(context.Background(), f, 25000)
		backtracks += benchResult.Backtracks
	}
	b.StopTimer()
	if benchResult.Status != atpg.Aborted {
		b.Fatalf("%s: %v after %d backtracks, want an abort", f.Describe(cm.C), benchResult.Status, benchResult.Backtracks)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(backtracks), "ns/backtrack")
}
