// Package fault implements the single stuck-at fault model: fault sites
// on signal stems and fanout branches, full fault list generation, and
// gate-local equivalence collapsing.
//
// A stem fault sits on a signal (a gate output, primary input or
// flip-flop output) and is seen by every consumer. A branch fault sits on
// one fanin pin of one consumer; branch faults are only generated where
// the source signal has more than one fanout, since otherwise the branch
// is indistinguishable from the stem.
package fault

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Fault is a single stuck-at fault site.
type Fault struct {
	Signal netlist.SignalID // the faulty net (stem) or the branch source
	Gate   netlist.SignalID // consuming gate/FF for branch faults; netlist.None for stem
	Pin    int              // fanin position within Gate; -1 for stem
	Stuck  logic.V          // logic.Zero or logic.One
}

// IsStem reports whether f is a stem fault.
func (f Fault) IsStem() bool { return f.Gate == netlist.None }

// Inject converts the fault into the simulator's injection form.
func (f Fault) Inject() sim.Inject {
	return sim.Inject{Signal: f.Signal, Gate: f.Gate, Pin: f.Pin, Value: f.Stuck}
}

// Describe renders the fault with signal names for reports.
func (f Fault) Describe(c *netlist.Circuit) string {
	sa := "s-a-0"
	if f.Stuck == logic.One {
		sa = "s-a-1"
	}
	if f.IsStem() {
		return fmt.Sprintf("%s %s", c.NameOf(f.Signal), sa)
	}
	return fmt.Sprintf("%s->%s.%d %s", c.NameOf(f.Signal), c.NameOf(f.Gate), f.Pin, sa)
}

// All returns the complete uncollapsed fault list of c in a
// deterministic order: both stem faults for every signal, then both
// branch faults for every fanin pin whose source has multiple fanouts.
func All(c *netlist.Circuit) []Fault {
	var fl []Fault
	for id := netlist.SignalID(0); int(id) < len(c.Signals); id++ {
		fl = append(fl,
			Fault{Signal: id, Gate: netlist.None, Pin: -1, Stuck: logic.Zero},
			Fault{Signal: id, Gate: netlist.None, Pin: -1, Stuck: logic.One},
		)
	}
	for id := netlist.SignalID(0); int(id) < len(c.Signals); id++ {
		s := &c.Signals[id]
		for pin, src := range s.Fanin {
			if len(c.Fanouts[src]) > 1 {
				fl = append(fl,
					Fault{Signal: src, Gate: id, Pin: pin, Stuck: logic.Zero},
					Fault{Signal: src, Gate: id, Pin: pin, Stuck: logic.One},
				)
			}
		}
	}
	return fl
}

// Collapsed returns the equivalence-collapsed fault list. The rules are
// the standard gate-local structural equivalences:
//
//   - an input of an AND/NAND (OR/NOR) gate stuck at the controlling
//     value is equivalent to the output stuck at the controlled response,
//     so input-side controlling faults are dropped in favour of the
//     output stem fault;
//   - both faults on the input of a NOT/BUF gate are equivalent to the
//     corresponding output faults and are dropped.
//
// Input-side faults are dropped whether they are branch faults or — when
// the source has a single fanout — the source's stem faults.
func Collapsed(c *netlist.Circuit) []Fault {
	type key struct {
		sig  netlist.SignalID
		gate netlist.SignalID
		pin  int
		v    logic.V
	}
	drop := make(map[key]bool)
	dropInput := func(src, gate netlist.SignalID, pin int, v logic.V) {
		if len(c.Fanouts[src]) > 1 {
			drop[key{src, gate, pin, v}] = true
		} else {
			drop[key{src, netlist.None, -1, v}] = true
		}
	}
	for id := netlist.SignalID(0); int(id) < len(c.Signals); id++ {
		s := &c.Signals[id]
		if s.Kind != netlist.KindGate {
			continue
		}
		switch s.Op {
		case logic.OpNot, logic.OpBuf:
			dropInput(s.Fanin[0], id, 0, logic.Zero)
			dropInput(s.Fanin[0], id, 0, logic.One)
		case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
			ctrl, _ := s.Op.Controlling()
			for pin, src := range s.Fanin {
				dropInput(src, id, pin, ctrl)
			}
		}
	}
	full := All(c)
	out := make([]Fault, 0, len(full))
	for _, f := range full {
		if drop[key{f.Signal, f.Gate, f.Pin, f.Stuck}] {
			continue
		}
		out = append(out, f)
	}
	return out
}
