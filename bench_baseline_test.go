package fsct

// TestEmitBench writes BENCH_baseline.json: wall-time and allocation
// measurements for the Table-1 (build + scan insertion) and Table-2
// (screening) suites plus the fault-simulation engine configurations,
// so future PRs have a perf trajectory to compare against.
//
// It is opt-in — the measurement loop takes minutes and pins the CPU —
// so a plain `go test ./...` skips it:
//
//	FSCT_EMIT_BENCH=1 go test -run TestEmitBench .

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/faultsim"
)

type benchMeasure struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

type table1Entry struct {
	Circuit string       `json:"circuit"`
	Gates   int          `json:"gates"`
	FFs     int          `json:"ffs"`
	Faults  int          `json:"faults"`
	Chains  int          `json:"chains"`
	Build   benchMeasure `json:"build"`
}

type table2Entry struct {
	Circuit        string       `json:"circuit"`
	Easy           int          `json:"easy"`
	Hard           int          `json:"hard"`
	ScreenCompiled benchMeasure `json:"screen_compiled_serial"`
	ScreenParallel benchMeasure `json:"screen_compiled_w8"`
}

type baseline struct {
	Note       string                  `json:"note"`
	GoVersion  string                  `json:"go_version"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Scale      float64                 `json:"scale"`
	Table1     []table1Entry           `json:"table1"`
	Table2     []table2Entry           `json:"table2"`
	FaultSim   map[string]benchMeasure `json:"faultsim"`
	// Headline ratio (per-circuit data above is the source of truth).
	FaultSimW8Speedup float64 `json:"faultsim_w8_speedup_vs_serial"`
}

func measure(f func()) benchMeasure {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	return benchMeasure{
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func TestEmitBench(t *testing.T) {
	if os.Getenv("FSCT_EMIT_BENCH") == "" {
		t.Skip("set FSCT_EMIT_BENCH=1 to measure and write BENCH_baseline.json")
	}
	out := baseline{
		Note: "Suite measured at the bench scale; shapes, not absolute numbers, are the " +
			"reproduction target. Parallel (w8) rows only show wall-clock gains when " +
			"GOMAXPROCS cores are actually available.",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      benchScale,
		FaultSim:   map[string]benchMeasure{},
	}

	for _, p := range Suite() {
		sp := p.Scale(benchScale)
		// Table 1: circuit build + scan insertion + fault list sizing.
		var faults []Fault
		var d *Design
		build := measure(func() {
			c := GenerateCircuit(sp, 1)
			var err error
			d, err = InsertScan(c, ScanOptions{NumChains: DefaultChains(len(c.FFs)), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			faults = CollapsedFaults(d.C)
		})
		st := d.C.Stat()
		out.Table1 = append(out.Table1, table1Entry{
			Circuit: p.Name, Gates: st.Gates, FFs: st.FFs,
			Faults: len(faults), Chains: len(d.Chains), Build: build,
		})

		// Table 2: screening per engine configuration.
		easy, hard := 0, 0
		for _, s := range ScreenFaults(d, faults) {
			switch s.Cat {
			case CatEasy:
				easy++
			case CatHard:
				hard++
			}
		}
		e2 := table2Entry{Circuit: p.Name, Easy: easy, Hard: hard}
		e2.ScreenCompiled = measure(func() {
			ScreenFaultsOpt(d, faults, ScreenOptions{Workers: 1})
		})
		e2.ScreenParallel = measure(func() {
			ScreenFaultsOpt(d, faults, ScreenOptions{Workers: 8})
		})
		out.Table2 = append(out.Table2, e2)
	}

	// Fault-simulation engine configurations on the largest circuit.
	d := mustBenchDesign(t, "s38584")
	faults := fault.Collapsed(d.C)
	seq := faultsim.Sequence(d.AlternatingSequence(8))
	few := faults
	if len(few) > 128 {
		few = few[:128]
	}
	out.FaultSim["scalar_serial_128faults"] = measure(func() {
		faultsim.RunSerial(d.C, seq, few, faultsim.Options{})
	})
	out.FaultSim["compiled_serial"] = measure(func() {
		faultsim.Run(d.C, seq, faults, faultsim.Options{Workers: 1})
	})
	out.FaultSim["compiled_w4"] = measure(func() {
		faultsim.Run(d.C, seq, faults, faultsim.Options{Workers: 4})
	})
	out.FaultSim["compiled_w8"] = measure(func() {
		faultsim.Run(d.C, seq, faults, faultsim.Options{Workers: 8})
	})

	if ns := out.FaultSim["compiled_w8"].NsPerOp; ns > 0 {
		out.FaultSimW8Speedup = float64(out.FaultSim["compiled_serial"].NsPerOp) / float64(ns)
	}

	f, err := os.Create("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		t.Fatal(err)
	}
	t.Logf("faultsim w8 speedup vs compiled-serial: %.2fx", out.FaultSimW8Speedup)
}

func mustBenchDesign(t *testing.T, name string) *Design {
	t.Helper()
	p := MustProfile(name).Scale(benchScale)
	c := GenerateCircuit(p, 1)
	d, err := InsertScan(c, ScanOptions{NumChains: DefaultChains(len(c.FFs)), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}
