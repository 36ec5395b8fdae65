package sim

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// LaneInject is a stuck-at override confined to one lane of a packed
// simulation. The parallel-fault simulator places the fault-free machine
// in lane 0 and one faulty machine per remaining lane.
type LaneInject struct {
	Inject
	Lane uint // 0..63
}

func (li LaneInject) mask() uint64 { return uint64(1) << li.Lane }

// applyStem forces lane Lane of w to Value.
func (li LaneInject) applyStem(w logic.Word) logic.Word {
	return w.Set(li.Lane, li.Value)
}

// PackedComb is the 64-lane analogue of Comb. All lanes evaluate the same
// circuit structure; injections differentiate lanes. It is the map-based
// reference CompiledComb is tested against; production code runs the
// compiled evaluators.
type PackedComb struct {
	C    *netlist.Circuit
	Vals []logic.Word

	stem   map[netlist.SignalID][]LaneInject // stem injections by signal
	branch map[netlist.SignalID][]LaneInject // branch injections by consuming gate/FF
}

// NewPackedComb returns a packed evaluator with all lanes X.
func NewPackedComb(c *netlist.Circuit) *PackedComb {
	return &PackedComb{
		C:      c,
		Vals:   make([]logic.Word, len(c.Signals)),
		stem:   make(map[netlist.SignalID][]LaneInject),
		branch: make(map[netlist.SignalID][]LaneInject),
	}
}

// SetInjections installs the per-lane fault set for subsequent Eval
// calls, replacing any previous set. Lane 0 should be left fault-free to
// serve as the reference machine.
func (e *PackedComb) SetInjections(injs []LaneInject) {
	clear(e.stem)
	clear(e.branch)
	for _, li := range injs {
		if li.IsStem() {
			e.stem[li.Signal] = append(e.stem[li.Signal], li)
		} else {
			e.branch[li.Gate] = append(e.branch[li.Gate], li)
		}
	}
}

// Words returns the per-signal value slice (aliased, indexed by
// SignalID) — the field access point shared with CompiledComb so
// callers can hold either backend behind one interface.
func (e *PackedComb) Words() []logic.Word { return e.Vals }

// ClearX resets every signal word to all-lanes-X.
func (e *PackedComb) ClearX() {
	for i := range e.Vals {
		e.Vals[i] = logic.Word{}
	}
}

// Eval evaluates all gates in topological order across all lanes,
// applying the installed injections. PIs and FF outputs must be preset.
func (e *PackedComb) Eval() {
	c := e.C
	// Stem faults on PIs and FF outputs take effect before gate eval.
	for sig, lis := range e.stem {
		if !c.IsGate(sig) {
			w := e.Vals[sig]
			for _, li := range lis {
				w = li.applyStem(w)
			}
			e.Vals[sig] = w
		}
	}
	var buf [8]logic.Word
	for _, g := range c.Order {
		s := &c.Signals[g]
		in := buf[:0]
		for _, f := range s.Fanin {
			in = append(in, e.Vals[f])
		}
		if lis, ok := e.branch[g]; ok {
			for _, li := range lis {
				in[li.Pin] = li.applyStem(in[li.Pin])
			}
		}
		w := s.Op.EvalWord(in)
		if lis, ok := e.stem[g]; ok {
			for _, li := range lis {
				w = li.applyStem(w)
			}
		}
		e.Vals[g] = w
	}
}

// FFNext returns the packed value presented at the D pin of flip-flop ff,
// honouring branch injections on that pin.
func (e *PackedComb) FFNext(ff netlist.SignalID) logic.Word {
	w := e.Vals[e.C.Signals[ff].Fanin[0]]
	if lis, ok := e.branch[ff]; ok {
		for _, li := range lis {
			if li.Pin == 0 {
				w = li.applyStem(w)
			}
		}
	}
	return w
}

// PackedSeq is the 64-lane sequential simulator.
type PackedSeq struct {
	PackedComb
	state []logic.Word
}

// NewPackedSeq returns a packed sequential simulator with all state X.
func NewPackedSeq(c *netlist.Circuit) *PackedSeq {
	return &PackedSeq{PackedComb: *NewPackedComb(c), state: make([]logic.Word, len(c.FFs))}
}

// ResetX sets every flip-flop to X in all lanes.
func (s *PackedSeq) ResetX() {
	for i := range s.state {
		s.state[i] = logic.Word{}
	}
}

// SetStateWord overwrites the packed state of one flip-flop (by index
// into c.FFs).
func (s *PackedSeq) SetStateWord(ffIndex int, w logic.Word) {
	s.state[ffIndex] = w
}

// StateWord returns the packed state of one flip-flop (by c.FFs index).
func (s *PackedSeq) StateWord(ffIndex int) logic.Word { return s.state[ffIndex] }

// Cycle applies one clock: pi carries one Word per primary input (the
// same pattern is normally broadcast to all lanes with logic.WordAll).
// It returns the packed primary-output values via po (reused storage).
func (s *PackedSeq) Cycle(pi []logic.Word, po []logic.Word) []logic.Word {
	c := s.C
	for i, in := range c.Inputs {
		s.Vals[in] = pi[i]
	}
	for i, ff := range c.FFs {
		s.Vals[ff] = s.state[i]
	}
	s.Eval()
	if cap(po) < len(c.Outputs) {
		po = make([]logic.Word, len(c.Outputs))
	}
	po = po[:len(c.Outputs)]
	for i, o := range c.Outputs {
		po[i] = s.Vals[o]
	}
	for i, ff := range c.FFs {
		s.state[i] = s.FFNext(ff)
	}
	return po
}
