package tpi

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// checkInSync compares the builder's kept fanouts, levels and scan-mode
// values with those a fresh Finalize and a full evaluation of a clone of
// its circuit give.
func checkInSync(t *testing.T, b *builder, after string) {
	t.Helper()
	c := b.c.Clone()
	if err := c.Finalize(); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
	if !slices.Equal(b.inputs, c.Inputs) {
		t.Fatalf("after %s: inputs %v, want %v", after, b.inputs, c.Inputs)
	}
	if len(b.fanouts) != len(c.Signals) || len(b.level) != len(c.Signals) || len(b.vals) != len(c.Signals) {
		t.Fatalf("after %s: kept %d fanouts, %d levels, %d values for %d signals",
			after, len(b.fanouts), len(b.level), len(b.vals), len(c.Signals))
	}
	for s := range c.Fanouts {
		if !slices.Equal(b.fanouts[s], c.Fanouts[s]) {
			t.Fatalf("after %s: fanouts of %s = %v, want %v", after, c.NameOf(netlist.SignalID(s)), b.fanouts[s], c.Fanouts[s])
		}
	}
	if !slices.Equal(b.level, c.Level) {
		t.Fatalf("after %s: levels %v, want %v", after, b.level, c.Level)
	}
	e := sim.NewComb(c)
	e.ClearX()
	for _, in := range c.Inputs {
		if v, ok := b.assignments[in]; ok {
			e.Vals[in] = v
		}
	}
	e.Eval(nil)
	for s, v := range e.Vals {
		if b.vals[s] != v {
			t.Fatalf("after %s: %s = %v, full evaluation gives %v", after, c.NameOf(netlist.SignalID(s)), b.vals[s], v)
		}
	}
	for s := range b.queued {
		if b.queued[s] || b.dist[s] != 0 || b.onPath[s] {
			t.Fatalf("after %s: scratch of %s not reset", after, c.NameOf(netlist.SignalID(s)))
		}
	}
}

// FuzzInsertIncremental applies a script of builder edits to a small
// generated circuit: input assignments, justification, rollback of
// assignments, mux links, test points and whole functional-link
// attempts. After every edit the kept structure and values must equal
// a from-scratch derivation.
func FuzzInsertIncremental(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 1, 4, 5})
	f.Add(int64(7), []byte{5, 5, 5, 4, 4, 3, 3, 1, 1, 2, 0})
	f.Add(int64(42), []byte{4, 4, 4, 4, 5, 5, 0, 0, 2, 2, 1, 3})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		c := gen.Generate(gen.Profile{Name: "fz", PIs: 6, POs: 4, FFs: 6, Gates: 50}, seed)
		b, err := newBuilder(c, Options{NumChains: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		checkInSync(t, b, "newBuilder")
		r := rand.New(rand.NewSource(seed))
		pick := func(ok func(netlist.SignalID) bool) netlist.SignalID {
			var ids []netlist.SignalID
			for s := range b.c.Signals {
				if ok(netlist.SignalID(s)) {
					ids = append(ids, netlist.SignalID(s))
				}
			}
			if len(ids) == 0 {
				return netlist.None
			}
			return ids[r.Intn(len(ids))]
		}
		bit := func() logic.V { return logic.V(r.Intn(2)) }
		ffs := b.c.FFs
		for step, op := range script {
			var what string
			switch op % 6 {
			case 0: // assign or release a free input
				in := pick(func(s netlist.SignalID) bool {
					return b.c.IsPI(s) && s != b.scanMode && !b.reserved[s]
				})
				if in == netlist.None {
					continue
				}
				if _, ok := b.assignments[in]; ok && r.Intn(2) == 0 {
					delete(b.assignments, in)
				} else {
					b.assignments[in] = bit()
				}
				b.propagate()
				what = "assignment"
			case 1: // justify an X gate
				g := pick(func(s netlist.SignalID) bool { return b.c.IsGate(s) && b.val(s) == logic.X })
				if g == netlist.None {
					continue
				}
				b.justify(g, bit())
				what = "justify"
			case 2: // justify, then roll the assignments back
				saved := maps.Clone(b.assignments)
				if g := pick(func(s netlist.SignalID) bool { return b.c.IsGate(s) && b.val(s) == logic.X }); g != netlist.None {
					b.justify(g, bit())
				}
				b.assignments = saved
				b.propagate()
				what = "rollback"
			case 3: // mux link from a flip-flop or a new scan-in pin
				src := ffs[r.Intn(len(ffs))]
				if r.Intn(3) == 0 {
					if src, err = b.addInput(fmt.Sprintf("scan_in%d", step)); err != nil {
						t.Fatal(err)
					}
					b.reserved[src] = true
					checkInSync(t, b, "addInput")
				}
				if _, err := b.insertMuxLink(src, ffs[r.Intn(len(ffs))]); err != nil {
					t.Fatal(err)
				}
				what = "mux link"
			case 4: // test point on a pin of an X gate, as a side input gets one
				g := pick(func(s netlist.SignalID) bool { return b.c.IsGate(s) && s != b.nsm && b.val(s) == logic.X })
				if g == netlist.None {
					continue
				}
				tp := plannedTP{gate: g, pin: r.Intn(len(b.c.Signals[g].Fanin)), force: bit()}
				if _, err := b.insertTestPoint(tp); err != nil {
					t.Fatal(err)
				}
				what = "test point"
			case 5: // a whole functional-link attempt
				b.tryFunctionalLink(ffs[r.Intn(len(ffs))], ffs[r.Intn(len(ffs))])
				what = "functional link"
			}
			checkInSync(t, b, fmt.Sprintf("step %d (%s)", step, what))
		}
	})
}
