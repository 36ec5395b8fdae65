package engine

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim"
)

// randWord fills all 64 lanes with values drawn from {0,1,X}; lane 0
// stays binary (the fault-free reference convention) and X shows up
// rarely so the three-valued corners get exercised without washing the
// whole trace out.
func randWord(rng *rand.Rand) logic.Word {
	w := logic.WordAll(logic.V(rng.Intn(2)))
	for lane := uint(1); lane < 64; lane++ {
		v := logic.V(rng.Intn(2))
		if rng.Intn(16) == 0 {
			v = logic.X
		}
		w = w.Set(lane, v)
	}
	return w
}

func laneInjections(faults []fault.Fault, n int) []sim.LaneInject {
	injs := make([]sim.LaneInject, 0, n)
	for k := 0; k < n && k < len(faults); k++ {
		injs = append(injs, sim.LaneInject{Inject: faults[k].Inject(), Lane: uint(k + 1)})
	}
	return injs
}

// TestSeqBackendEquivalence drives the sequential machine every backend
// runs on — the compiled simulator over the engine's cached Program,
// which Hybrid also uses for its shared baseline and demoted faults —
// through injections, X-resets, packed state presets and divergent
// per-lane inputs, and demands bit-identical output words against the
// packed reference. Two machines share the one cached Program with
// different fault sets, so a machine that wrote into the shared program
// would show up as a mismatch on the other.
func TestSeqBackendEquivalence(t *testing.T) {
	c := gen.Generate(gen.Profile{Name: "eqs", PIs: 5, POs: 4, FFs: 12, Gates: 150}, 7)
	arts := New().For(c)
	faults := arts.CollapsedFaults()

	ref := []*sim.PackedSeq{sim.NewPackedSeq(c), sim.NewPackedSeq(c)}
	got := []*sim.CompiledSeq{sim.NewCompiledSeqFrom(arts.Program(nil)), sim.NewCompiledSeqFrom(arts.Program(nil))}

	rng := rand.New(rand.NewSource(11))
	pi := make([]logic.Word, len(c.Inputs))
	refPO := make([][]logic.Word, len(ref))
	gotPO := make([][]logic.Word, len(got))
	for round := 0; round < 3; round++ {
		for m := range ref {
			injs := laneInjections(faults[(2*round+m)*15:], 15)
			ref[m].SetInjections(injs)
			got[m].SetInjections(injs)
			ref[m].ResetX()
			got[m].ResetX()
			// Preset a few flip-flops with divergent per-lane values.
			for ff := 0; ff < len(c.FFs) && ff < 4; ff++ {
				w := randWord(rng)
				ref[m].SetStateWord(ff, w)
				got[m].SetStateWord(ff, w)
			}
		}
		for cyc := 0; cyc < 24; cyc++ {
			for i := range pi {
				pi[i] = randWord(rng)
			}
			for m := range ref {
				refPO[m] = ref[m].Cycle(pi, refPO[m])
				gotPO[m] = got[m].Cycle(pi, gotPO[m])
				for o := range refPO[m] {
					for lane := uint(0); lane < 64; lane++ {
						want, have := refPO[m][o].Get(lane), gotPO[m][o].Get(lane)
						if have != want {
							t.Fatalf("round %d cycle %d machine %d: compiled output %d lane %d = %v, packed says %v",
								round, cyc, m, o, lane, have, want)
						}
					}
				}
				for ff := range c.FFs {
					if got[m].StateWord(ff) != ref[m].StateWord(ff) {
						t.Fatalf("round %d cycle %d machine %d: compiled state of flip-flop %d diverged from packed",
							round, cyc, m, ff)
					}
				}
			}
		}
	}
}

// TestCombBackendEquivalence does the same for the combinational
// machine over the scan circuit's comb model, built from the comb
// model's cached Program the way screening and the step-2 dropper
// build it.
func TestCombBackendEquivalence(t *testing.T) {
	c := gen.Generate(gen.Profile{Name: "eqc", PIs: 5, POs: 4, FFs: 10, Gates: 120}, 9)
	e := New()
	cm, err := e.For(c).CombModel()
	if err != nil {
		t.Fatal(err)
	}
	arts := e.For(cm.C)
	faults := fault.Collapsed(cm.C)

	ref := sim.NewPackedComb(cm.C)
	got := sim.NewCompiledCombFrom(arts.Program(nil))

	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 3; round++ {
		injs := laneInjections(faults[round*10:], 20)
		ref.SetInjections(injs)
		got.SetInjections(injs)
		ref.ClearX()
		got.ClearX()
		for _, in := range cm.C.Inputs {
			w := randWord(rng)
			ref.Vals[in] = w
			got.Vals[in] = w
		}
		ref.Eval()
		got.Eval()
		for _, out := range cm.C.Outputs {
			for lane := uint(0); lane < 64; lane++ {
				if got.Vals[out].Get(lane) != ref.Vals[out].Get(lane) {
					t.Fatalf("round %d: compiled output %s lane %d = %v, packed says %v",
						round, cm.C.NameOf(out), lane, got.Vals[out].Get(lane), ref.Vals[out].Get(lane))
				}
			}
		}
	}
}
