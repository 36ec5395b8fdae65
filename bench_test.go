package fsct

// Benchmark harness regenerating every table and figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Benchmarks run the suite at benchScale of the published circuit sizes
// so the whole harness completes in minutes; cmd/fsctest reproduces the
// tables at any scale up to full size. Shapes, not absolute numbers, are
// the reproduction target (the paper ran on a SPARCstation 4).

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/satpg"
)

const benchScale = 0.04

func benchDesign(b *testing.B, name string, chains int) *Design {
	b.Helper()
	p := MustProfile(name).Scale(benchScale)
	c := GenerateCircuit(p, 1)
	if chains == 0 {
		chains = DefaultChains(len(c.FFs))
	}
	d, err := InsertScan(c, ScanOptions{NumChains: chains, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkTable1Suite regenerates Table 1: building each suite circuit,
// inserting its functional scan chains, and sizing its fault list.
func BenchmarkTable1Suite(b *testing.B) {
	for _, p := range Suite() {
		b.Run(p.Name, func(b *testing.B) {
			sp := p.Scale(benchScale)
			for i := 0; i < b.N; i++ {
				c := GenerateCircuit(sp, 1)
				d, err := InsertScan(c, ScanOptions{NumChains: DefaultChains(len(c.FFs)), Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				faults := CollapsedFaults(d.C)
				if i == 0 {
					st := d.C.Stat()
					b.ReportMetric(float64(st.Gates), "gates")
					b.ReportMetric(float64(st.FFs), "FFs")
					b.ReportMetric(float64(len(faults)), "faults")
					b.ReportMetric(float64(len(d.Chains)), "chains")
				}
			}
		})
	}
}

// BenchmarkTable2Screening regenerates Table 2: the forward-implication
// screening that splits chain-affecting faults into easy and hard.
func BenchmarkTable2Screening(b *testing.B) {
	for _, p := range Suite() {
		b.Run(p.Name, func(b *testing.B) {
			d := benchDesign(b, p.Name, 0)
			faults := CollapsedFaults(d.C)
			b.ResetTimer()
			var easy, hard int
			for i := 0; i < b.N; i++ {
				easy, hard = 0, 0
				screened, _ := ScreenFaultsCtx(context.Background(), d, faults, ScreenOptions{})
				for _, s := range screened {
					switch s.Cat {
					case CatEasy:
						easy++
					case CatHard:
						hard++
					}
				}
			}
			b.ReportMetric(float64(easy), "easy")
			b.ReportMetric(float64(hard), "hard")
			b.ReportMetric(100*float64(easy+hard)/float64(len(faults)), "affect%")
		})
	}
}

// BenchmarkTable3Flow regenerates Table 3: the full detection pipeline
// (alternating test, comb ATPG + sequential fault simulation, grouped
// sequential ATPG) per suite circuit.
func BenchmarkTable3Flow(b *testing.B) {
	for _, p := range Suite() {
		b.Run(p.Name, func(b *testing.B) {
			d := benchDesign(b, p.Name, 0)
			b.ResetTimer()
			var rep *Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = RunFlowCtx(context.Background(), d, FlowParams{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Step2.Detected), "s2det")
			b.ReportMetric(float64(rep.Step2.Undetectable+rep.Step3.Undetectable), "undetbl")
			b.ReportMetric(float64(rep.Undetected()), "undet")
		})
	}
}

// BenchmarkFig5Profile regenerates Figure 5: the step-2 test set's
// detection profile on the largest circuit (the paper plots s38584).
func BenchmarkFig5Profile(b *testing.B) {
	d := benchDesign(b, "s38584", 0)
	b.ResetTimer()
	var rep *Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = RunFlowCtx(context.Background(), d, FlowParams{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rep.Profile) > 0 {
		total := rep.Profile[len(rep.Profile)-1]
		// How early the curve saturates: vectors needed for 90% of the
		// final detections (the paper's point: a small prefix suffices).
		at90 := 0
		for i, v := range rep.Profile {
			if float64(v) >= 0.9*float64(total) {
				at90 = i
				break
			}
		}
		b.ReportMetric(float64(len(rep.Profile)-1), "vectors")
		b.ReportMetric(float64(at90), "vec@90%")
	}
}

// BenchmarkScaleStability runs one circuit profile at several scales
// and reports the screening shape at each — the evidence that the
// scaled-down suite runs measure the same phenomena as full size.
func BenchmarkScaleStability(b *testing.B) {
	for _, scale := range []float64{0.05, 0.1, 0.2, 0.4} {
		b.Run(fmt.Sprintf("scale%.2f", scale), func(b *testing.B) {
			p := MustProfile("s9234").Scale(scale)
			var affect, hard float64
			for i := 0; i < b.N; i++ {
				c := GenerateCircuit(p, 1)
				d, err := InsertScan(c, ScanOptions{NumChains: 1, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				faults := CollapsedFaults(d.C)
				e, h := 0, 0
				screened, _ := ScreenFaultsCtx(context.Background(), d, faults, ScreenOptions{})
				for _, s := range screened {
					switch s.Cat {
					case CatEasy:
						e++
					case CatHard:
						h++
					}
				}
				affect = 100 * float64(e+h) / float64(len(faults))
				hard = 100 * float64(h) / float64(len(faults))
			}
			b.ReportMetric(affect, "affect%")
			b.ReportMetric(hard, "hard%")
		})
	}
}

// BenchmarkAblationOrdering measures how chain ordering (the flexibility
// the paper leaves to the designer) moves faults between categories.
func BenchmarkAblationOrdering(b *testing.B) {
	p := MustProfile("s9234").Scale(benchScale)
	c := GenerateCircuit(p, 1)
	for seed := int64(1); seed <= 3; seed++ {
		b.Run(fmt.Sprintf("order%d", seed), func(b *testing.B) {
			var hard int
			for i := 0; i < b.N; i++ {
				d, err := InsertScan(c, ScanOptions{NumChains: 1, Seed: seed})
				if err != nil {
					b.Fatal(err)
				}
				hard = 0
				screened, _ := ScreenFaultsCtx(context.Background(), d, CollapsedFaults(d.C), ScreenOptions{})
				for _, s := range screened {
					if s.Cat == CatHard {
						hard++
					}
				}
			}
			b.ReportMetric(float64(hard), "hard")
		})
	}
}

// BenchmarkAblationChains compares 1/2/4 scan chains on one circuit:
// shorter shift windows against more multi-chain (group-1) faults.
func BenchmarkAblationChains(b *testing.B) {
	p := MustProfile("s13207").Scale(benchScale * 2)
	c := GenerateCircuit(p, 1)
	for _, chains := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("chains%d", chains), func(b *testing.B) {
			d, err := InsertScan(c, ScanOptions{NumChains: chains, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var rep *Report
			for i := 0; i < b.N; i++ {
				rep, err = RunFlowCtx(context.Background(), d, FlowParams{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.MaxChainLen()), "maxchain")
			b.ReportMetric(float64(rep.Undetected()), "undet")
		})
	}
}

// BenchmarkAblationPodemVsSat compares the structural PODEM engine with
// the SAT-based baseline (Larrabee-style miter + DPLL) on the same
// scan-mode fault population.
func BenchmarkAblationPodemVsSat(b *testing.B) {
	d := benchDesign(b, "s5378", 1)
	cm, err := atpg.BuildCombModel(d.C)
	if err != nil {
		b.Fatal(err)
	}
	fixed := map[SignalID]Value{}
	for k, v := range d.Assignments {
		fixed[k] = v
	}
	m, err := atpg.NewModel(cm.C, fixed)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Collapsed(cm.C)
	if len(faults) > 120 {
		faults = faults[:120]
	}
	b.Run("podem", func(b *testing.B) {
		eng := atpg.NewEngine(m)
		var found int
		for i := 0; i < b.N; i++ {
			found = 0
			for _, f := range faults {
				if res, _ := eng.GenerateCtx(context.Background(), f, 5000); res.Status == atpg.Found {
					found++
				}
			}
		}
		b.ReportMetric(float64(found), "found")
	})
	b.Run("sat", func(b *testing.B) {
		var found int
		for i := 0; i < b.N; i++ {
			found = 0
			for _, f := range faults {
				r, err := satpg.Generate(m, f, 20000)
				if err != nil {
					b.Fatal(err)
				}
				if r.Status == atpg.Found {
					found++
				}
			}
		}
		b.ReportMetric(float64(found), "found")
	})
}

// BenchmarkScreen measures the screening engine across worker counts
// on the scaled suite's largest circuit: "compiled-serial" is the
// single-threaded compiled evaluator; the wN variants add fault-axis
// sharding on top.
func BenchmarkScreen(b *testing.B) {
	d := benchDesign(b, "s38584", 0)
	faults := CollapsedFaults(d.C)
	for _, cfg := range []struct {
		name string
		opts ScreenOptions
	}{
		{"compiled-serial", ScreenOptions{Workers: 1}},
		{"compiled-w4", ScreenOptions{Workers: 4}},
		{"compiled-w8", ScreenOptions{Workers: 8}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ScreenFaultsCtx(context.Background(), d, faults, cfg.opts)
			}
		})
	}
}

// BenchmarkFaultSim measures sequential fault simulation of the
// alternating sequence across worker counts (same axes as
// BenchmarkScreen; "scalar-serial" is the one-fault-at-a-time reference
// machine, the floor every packed variant is measured against).
func BenchmarkFaultSim(b *testing.B) {
	d := benchDesign(b, "s38584", 0)
	faults := fault.Collapsed(d.C)
	seq := faultsim.Sequence(d.AlternatingSequence(8))
	b.Run("scalar-serial", func(b *testing.B) {
		few := faults
		if len(few) > 128 {
			few = few[:128] // the scalar machine is far too slow for the full list
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			faultsim.RunSerial(d.C, seq, few, faultsim.Options{})
		}
	})
	for _, cfg := range []struct {
		name string
		opts faultsim.Options
	}{
		{"compiled-serial", faultsim.Options{Workers: 1}},
		{"compiled-w4", faultsim.Options{Workers: 4}},
		{"compiled-w8", faultsim.Options{Workers: 8}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				faultsim.RunCtx(context.Background(), d.C, seq, faults, cfg.opts)
			}
		})
	}
}

// BenchmarkAblationSerialVsParallelFaultSim compares the 63-lane packed
// fault simulator against the scalar reference on the same workload.
func BenchmarkAblationSerialVsParallelFaultSim(b *testing.B) {
	d := benchDesign(b, "s5378", 1)
	faults := fault.Collapsed(d.C)
	if len(faults) > 256 {
		faults = faults[:256]
	}
	seq := faultsim.Sequence(d.AlternatingSequence(8))
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			faultsim.RunCtx(context.Background(), d.C, seq, faults, faultsim.Options{})
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			faultsim.RunSerial(d.C, seq, faults, faultsim.Options{})
		}
	})
}
