package sim

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// randInjections builds a random lane-injection set over the circuit:
// stem faults on arbitrary signals and branch faults on valid
// (gate/FF, pin) pairs, several sharing sites and lanes so the merge
// logic is exercised.
func randInjections(r *rand.Rand, c *netlist.Circuit, n int) []LaneInject {
	var sites []netlist.SignalID
	for id := range c.Signals {
		sites = append(sites, netlist.SignalID(id))
	}
	injs := make([]LaneInject, 0, n)
	for len(injs) < n {
		lane := uint(1 + r.Intn(63))
		val := logic.V(r.Intn(2))
		if r.Intn(8) == 0 {
			val = logic.X
		}
		s := sites[r.Intn(len(sites))]
		sig := &c.Signals[s]
		if len(sig.Fanin) > 0 && r.Intn(2) == 0 {
			pin := r.Intn(len(sig.Fanin))
			injs = append(injs, LaneInject{
				Inject: Inject{Signal: sig.Fanin[pin], Gate: s, Pin: pin, Value: val},
				Lane:   lane,
			})
		} else {
			injs = append(injs, LaneInject{
				Inject: Inject{Signal: s, Gate: netlist.None, Pin: -1, Value: val},
				Lane:   lane,
			})
		}
	}
	return injs
}

func randWord(r *rand.Rand) logic.Word {
	ones := r.Uint64()
	zeros := r.Uint64() &^ ones
	return logic.Word{Ones: ones, Zeros: zeros}
}

// TestCompiledMatchesPackedComb cross-checks the compiled combinational
// evaluator against the map-based reference on randomized circuits,
// per-lane divergent inputs and injection sets that change on every
// ClearX round. Every fourth circuit has no flip-flops, the shape of
// the scan-mode combinational model screening and the step-2 dropper
// evaluate.
func TestCompiledMatchesPackedComb(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		ffs := 5 + r.Intn(12)
		if trial%4 == 3 {
			ffs = 0
		}
		c := gen.Generate(gen.Profile{
			Name: "xcheck", PIs: 4 + r.Intn(8), POs: 3 + r.Intn(6),
			FFs: ffs, Gates: 60 + r.Intn(200),
		}, int64(100+trial))
		ref := NewPackedComb(c)
		cmp := NewCompiledComb(c)
		for round := 0; round < 6; round++ {
			injs := randInjections(r, c, r.Intn(64))
			ref.SetInjections(injs)
			cmp.SetInjections(injs)
			ref.ClearX()
			cmp.ClearX()
			for _, in := range c.Inputs {
				w := randWord(r)
				ref.Vals[in] = w
				cmp.Vals[in] = w
			}
			for _, ff := range c.FFs {
				w := randWord(r)
				ref.Vals[ff] = w
				cmp.Vals[ff] = w
			}
			ref.Eval()
			cmp.Eval()
			for id := range c.Signals {
				if !ref.Vals[id].Eq(cmp.Vals[id]) {
					t.Fatalf("trial %d round %d: signal %s: packed %+v compiled %+v",
						trial, round, c.NameOf(netlist.SignalID(id)), ref.Vals[id], cmp.Vals[id])
				}
			}
			for _, ff := range c.FFs {
				if a, b := ref.FFNext(ff), cmp.FFNext(ff); !a.Eq(b) {
					t.Fatalf("trial %d round %d: FFNext(%s): packed %+v compiled %+v",
						trial, round, c.NameOf(ff), a, b)
				}
			}
		}
	}
}

// TestCompiledSeqMatchesPackedSeq runs multi-cycle sequences on both
// sequential simulators: first with broadcast inputs and an injection
// swap mid-stream, then over repeated ResetX rounds that each install a
// new injection set, preset flip-flops with per-lane divergent state
// words (X included) and clock per-lane divergent inputs.
func TestCompiledSeqMatchesPackedSeq(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		c := gen.Generate(gen.Profile{
			Name: "seqxcheck", PIs: 5, POs: 4, FFs: 8 + r.Intn(10), Gates: 120,
		}, int64(300+trial))
		ref := NewPackedSeq(c)
		cmp := NewCompiledSeq(c)
		injs := randInjections(r, c, 40)
		ref.SetInjections(injs)
		cmp.SetInjections(injs)
		ref.ResetX()
		cmp.ResetX()
		pi := make([]logic.Word, len(c.Inputs))
		var poA, poB []logic.Word
		for cyc := 0; cyc < 40; cyc++ {
			if cyc == 20 {
				// Swap the fault set mid-sequence: state carries over.
				injs = randInjections(r, c, 30)
				ref.SetInjections(injs)
				cmp.SetInjections(injs)
			}
			for i := range pi {
				pi[i] = logic.WordAll(logic.V(r.Intn(2)))
			}
			poA = ref.Cycle(pi, poA)
			poB = cmp.Cycle(pi, poB)
			for o := range poA {
				if !poA[o].Eq(poB[o]) {
					t.Fatalf("trial %d cycle %d output %d: packed %+v compiled %+v",
						trial, cyc, o, poA[o], poB[o])
				}
			}
			for i := range c.FFs {
				if a, b := ref.StateWord(i), cmp.StateWord(i); !a.Eq(b) {
					t.Fatalf("trial %d cycle %d FF %d: state diverged", trial, cyc, i)
				}
			}
		}
		for round := 0; round < 3; round++ {
			injs = randInjections(r, c, 1+r.Intn(40))
			ref.SetInjections(injs)
			cmp.SetInjections(injs)
			ref.ResetX()
			cmp.ResetX()
			for ff := 0; ff < len(c.FFs) && ff < 4; ff++ {
				w := randWord(r)
				ref.SetStateWord(ff, w)
				cmp.SetStateWord(ff, w)
			}
			for cyc := 0; cyc < 24; cyc++ {
				for i := range pi {
					pi[i] = randWord(r)
				}
				poA = ref.Cycle(pi, poA)
				poB = cmp.Cycle(pi, poB)
				for o := range poA {
					if !poA[o].Eq(poB[o]) {
						t.Fatalf("trial %d round %d cycle %d output %d: packed %+v compiled %+v",
							trial, round, cyc, o, poA[o], poB[o])
					}
				}
				for i := range c.FFs {
					if a, b := ref.StateWord(i), cmp.StateWord(i); !a.Eq(b) {
						t.Fatalf("trial %d round %d cycle %d FF %d: state diverged", trial, round, cyc, i)
					}
				}
			}
		}
	}
}

// TestCompiledSharedProgram pins that evaluators sharing one Program do
// not interfere — the property the parallel workers rely on.
func TestCompiledSharedProgram(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	c := gen.Generate(gen.Profile{Name: "share", PIs: 5, POs: 4, FFs: 6, Gates: 80}, 7)
	p := Compile(c)
	a := NewCompiledCombFrom(p)
	b := NewCompiledCombFrom(p)
	injs := randInjections(r, c, 20)
	a.SetInjections(injs)
	// b keeps no injections: must behave like a fault-free evaluator.
	a.ClearX()
	b.ClearX()
	for _, in := range c.Inputs {
		w := randWord(r)
		a.Vals[in] = w
		b.Vals[in] = w
	}
	for _, ff := range c.FFs {
		a.Vals[ff] = logic.WordAll(logic.Zero)
		b.Vals[ff] = logic.WordAll(logic.Zero)
	}
	a.Eval()
	b.Eval()
	ref := NewPackedComb(c)
	ref.ClearX()
	for _, in := range c.Inputs {
		ref.Vals[in] = b.Vals[in]
	}
	for _, ff := range c.FFs {
		ref.Vals[ff] = logic.WordAll(logic.Zero)
	}
	ref.Eval()
	for id := range c.Signals {
		if !ref.Vals[id].Eq(b.Vals[id]) {
			t.Fatalf("shared-program evaluator b polluted at signal %d", id)
		}
	}
}

func BenchmarkPackedVsCompiledEval(b *testing.B) {
	c := gen.Generate(gen.Profile{Name: "evbench", PIs: 30, POs: 20, FFs: 100, Gates: 3000}, 9)
	r := rand.New(rand.NewSource(51))
	injs := randInjections(r, c, 63)
	pi := make([]logic.Word, len(c.Inputs))
	for i := range pi {
		pi[i] = randWord(r)
	}
	b.Run("map", func(b *testing.B) {
		e := NewPackedComb(c)
		e.SetInjections(injs)
		for i := 0; i < b.N; i++ {
			e.ClearX()
			for j, in := range c.Inputs {
				e.Vals[in] = pi[j]
			}
			e.Eval()
		}
	})
	b.Run("compiled", func(b *testing.B) {
		e := NewCompiledComb(c)
		e.SetInjections(injs)
		for i := 0; i < b.N; i++ {
			e.ClearX()
			for j, in := range c.Inputs {
				e.Vals[in] = pi[j]
			}
			e.Eval()
		}
	})
}
