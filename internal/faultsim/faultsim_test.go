package faultsim

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
)

func randSeq(r *rand.Rand, nPI, cycles int, withX bool) Sequence {
	seq := make(Sequence, cycles)
	for c := range seq {
		v := make([]logic.V, nPI)
		for i := range v {
			if withX && r.Intn(8) == 0 {
				v[i] = logic.X
			} else {
				v[i] = logic.V(r.Intn(2))
			}
		}
		seq[c] = v
	}
	return seq
}

// TestParallelMatchesSerial cross-checks the packed 63-lane simulator
// against the scalar reference over the full collapsed fault list of
// s27 and of a generated circuit.
func TestParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name string
	}{{"s27"}, {"gen"}} {
		c := bench.MustS27()
		if tc.name == "gen" {
			c = gen.Generate(gen.Profile{Name: "fsim", PIs: 6, POs: 5, FFs: 10, Gates: 120}, 5)
		}
		faults := fault.Collapsed(c)
		seq := randSeq(r, len(c.Inputs), 50, true)
		opts := Options{}
		par, _ := RunCtx(context.Background(), c, seq, faults, opts)
		ser := RunSerial(c, seq, faults, opts)
		if len(par.DetectedAt) != len(ser.DetectedAt) {
			t.Fatalf("%s: result sizes differ", tc.name)
		}
		for i := range par.DetectedAt {
			if par.DetectedAt[i] != ser.DetectedAt[i] {
				t.Errorf("%s: fault %d (%s): parallel %d, serial %d",
					tc.name, i, faults[i].Describe(c), par.DetectedAt[i], ser.DetectedAt[i])
			}
		}
	}
}

// TestCompiledMatchesRunSerial cross-checks the compiled evaluator
// backend against the scalar reference (RunSerial, which shares no
// evaluator code with it) over whole fault-simulation runs on
// randomized circuits and sequences.
func TestCompiledMatchesRunSerial(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		c := gen.Generate(gen.Profile{
			Name: "xev", PIs: 4 + r.Intn(6), POs: 4 + r.Intn(4),
			FFs: 6 + r.Intn(12), Gates: 80 + r.Intn(160),
		}, int64(40+trial))
		faults := fault.Collapsed(c)
		seq := randSeq(r, len(c.Inputs), 40, true)
		serRes := RunSerial(c, seq, faults, Options{})
		compRes, _ := RunCtx(context.Background(), c, seq, faults, Options{Workers: 1, Eval: engine.Compiled})
		for i := range serRes.DetectedAt {
			if serRes.DetectedAt[i] != compRes.DetectedAt[i] {
				t.Errorf("trial %d fault %d (%s): serial %d, compiled %d",
					trial, i, faults[i].Describe(c), serRes.DetectedAt[i], compRes.DetectedAt[i])
			}
		}
	}
}

// TestRunDeterministicAcrossWorkers pins the sharding determinism
// contract: identical Result for workers = 1, 4 and GOMAXPROCS, with
// either backend, with and without early stop.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	c := gen.Generate(gen.Profile{Name: "det", PIs: 8, POs: 6, FFs: 20, Gates: 400}, 77)
	faults := fault.Collapsed(c)
	seq := randSeq(r, len(c.Inputs), 60, true)
	for _, eval := range []engine.Backend{engine.Compiled, engine.Hybrid} {
		for _, stop := range []bool{false, true} {
			ref, _ := RunCtx(context.Background(), c, seq, faults, Options{Workers: 1, Eval: eval, StopWhenAllDetected: stop})
			for _, workers := range []int{4, runtime.GOMAXPROCS(0), 0} {
				got, _ := RunCtx(context.Background(), c, seq, faults, Options{Workers: workers, Eval: eval, StopWhenAllDetected: stop})
				if !reflect.DeepEqual(ref.DetectedAt, got.DetectedAt) {
					t.Fatalf("eval=%v stop=%v: workers=%d result differs from serial",
						eval, stop, workers)
				}
			}
		}
	}
}

func TestParallelMatchesSerialWithInitState(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	c := bench.MustS27()
	faults := fault.Collapsed(c)
	seq := randSeq(r, len(c.Inputs), 30, false)
	opts := Options{InitState: []logic.V{logic.Zero, logic.One, logic.Zero}}
	par, _ := RunCtx(context.Background(), c, seq, faults, opts)
	ser := RunSerial(c, seq, faults, opts)
	for i := range par.DetectedAt {
		if par.DetectedAt[i] != ser.DetectedAt[i] {
			t.Errorf("fault %d: parallel %d serial %d", i, par.DetectedAt[i], ser.DetectedAt[i])
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	c := bench.MustS27()
	res, _ := RunCtx(context.Background(), c, nil, fault.Collapsed(c), Options{})
	if res.NumDetected() != 0 {
		t.Error("detected faults with empty sequence")
	}
	res, _ = RunCtx(context.Background(), c, randSeq(rand.New(rand.NewSource(1)), len(c.Inputs), 5, false), nil, Options{})
	if len(res.DetectedAt) != 0 {
		t.Error("non-empty result for empty fault list")
	}
}

func TestCoverageReasonable(t *testing.T) {
	// Long random sequences should detect a solid majority of s27
	// faults (classic result: random patterns reach high coverage on
	// small circuits).
	r := rand.New(rand.NewSource(3))
	c := bench.MustS27()
	faults := fault.Collapsed(c)
	seq := randSeq(r, len(c.Inputs), 400, false)
	res, _ := RunCtx(context.Background(), c, seq, faults, Options{})
	cov := float64(res.NumDetected()) / float64(len(faults))
	if cov < 0.80 {
		t.Errorf("random coverage only %.2f", cov)
	}
	if len(res.Undetected())+res.NumDetected() != len(faults) {
		t.Error("undetected+detected != total")
	}
}

func TestDetectionCycleIsFirst(t *testing.T) {
	// Serial reference: detection cycle reported must be the first cycle
	// with a definite mismatch; verify monotonicity of Profile.
	r := rand.New(rand.NewSource(17))
	c := bench.MustS27()
	faults := fault.Collapsed(c)
	seq := randSeq(r, len(c.Inputs), 60, false)
	res, _ := RunCtx(context.Background(), c, seq, faults, Options{})
	bounds := []int{0, 10, 20, 40, 60}
	prof := res.Profile(bounds)
	for i := 1; i < len(prof); i++ {
		if prof[i] < prof[i-1] {
			t.Errorf("profile not monotone: %v", prof)
		}
	}
	if prof[0] != 0 {
		t.Errorf("profile at bound 0 = %d", prof[0])
	}
	if prof[len(prof)-1] != res.NumDetected() {
		t.Errorf("profile end %d != detected %d", prof[len(prof)-1], res.NumDetected())
	}
}

func TestStopWhenAllDetected(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	c := bench.MustS27()
	faults := fault.Collapsed(c)[:10]
	seq := randSeq(r, len(c.Inputs), 300, false)
	a, _ := RunCtx(context.Background(), c, seq, faults, Options{})
	b, _ := RunCtx(context.Background(), c, seq, faults, Options{StopWhenAllDetected: true})
	for i := range a.DetectedAt {
		if a.DetectedAt[i] != b.DetectedAt[i] {
			t.Errorf("early stop changed detection of fault %d", i)
		}
	}
}

func TestCombinationalAsZeroFFCircuit(t *testing.T) {
	// A circuit without flip-flops: every "cycle" is an independent
	// vector; check a stuck PI fault is caught by the right vector.
	c := genComb(t)
	faults := fault.Collapsed(c)
	seq := Sequence{
		{logic.Zero, logic.Zero},
		{logic.One, logic.One},
	}
	res, _ := RunCtx(context.Background(), c, seq, faults, Options{})
	if res.NumDetected() == 0 {
		t.Error("no combinational faults detected")
	}
}

func genComb(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(`
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
`, "comb")
	if err != nil {
		t.Fatal(err)
	}
	return c
}
