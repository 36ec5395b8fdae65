package sim

import (
	"fmt"
	"unsafe"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// This file is the compiled packed evaluator: the circuit is levelized
// once into a flat instruction stream, and the per-eval injection maps
// of PackedComb are replaced by dense per-signal patches built at
// SetInjections time. Two things make the inner loop branch-light:
//
//   - gate evaluation walks a contiguous []instr / flat fanin slice
//     instead of chasing per-signal Fanin slices through c.Signals;
//   - an injection is pre-merged into a three-mask patch (clear/ones/
//     zeros), so applying any number of same-site lane injections is
//     four bit operations instead of a per-lane Set loop, and the
//     "does this signal carry an injection" test is a dense slice load
//     instead of a map lookup.
//
// PackedComb and PackedSeq stay as the map-based reference
// implementations; the cross-check tests in compiled_test.go pin the
// compiled evaluators to identical outputs.

// instr is one compiled gate evaluation: op applied to the fanin IDs
// in Program.fanin[inLo:inHi], result stored at signal out.
type instr struct {
	op         logic.Op
	inLo, inHi int32
	out        netlist.SignalID
}

// Program is the compiled, immutable form of a circuit's combinational
// logic. One Program can back any number of CompiledComb/CompiledSeq
// instances concurrently — parallel fault-simulation workers compile
// once and share it.
type Program struct {
	C      *netlist.Circuit
	code   []instr
	fanin  []netlist.SignalID
	isGate []bool // dense IsGate, avoiding Signals loads on the stem path
}

// SizeBytes estimates the program's resident footprint — the
// instruction stream, the flattened fanin table and the gate mask —
// for byte-budgeted caches. The backing circuit is not counted; its
// owner accounts for it.
func (p *Program) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*p)) +
		int64(cap(p.code))*int64(unsafe.Sizeof(instr{})) +
		int64(cap(p.fanin))*int64(unsafe.Sizeof(netlist.SignalID(0))) +
		int64(cap(p.isGate))
}

// Compile levelizes c (using the topological order Finalize computed)
// into a flat instruction stream. It panics when the circuit carries an
// unknown gate operator; circuits built through the netlist package
// cannot (logic.ParseOp and the generators only produce valid ops), so
// callers holding externally-constructed Signals should prefer
// CompileChecked.
func Compile(c *netlist.Circuit) *Program {
	p, err := CompileChecked(c)
	if err != nil {
		panic(err)
	}
	return p
}

// CompileChecked is Compile with opcode validation: any gate whose
// operator is outside the defined logic.Op set yields an error here, at
// compile time, so the instruction-stream evaluators never meet an
// unknown op mid-evaluation (the runtime panic in evalDirect is an
// unreachable invariant, not an error path).
func CompileChecked(c *netlist.Circuit) (*Program, error) {
	for _, g := range c.Order {
		if op := c.Signals[g].Op; !op.Valid() {
			return nil, fmt.Errorf("sim: compile %s: gate %q has unknown op %v",
				c.Name, c.Signals[g].Name, op)
		}
	}
	p := &Program{
		C:      c,
		code:   make([]instr, 0, len(c.Order)),
		isGate: make([]bool, len(c.Signals)),
	}
	nFanin := 0
	for _, g := range c.Order {
		nFanin += len(c.Signals[g].Fanin)
	}
	p.fanin = make([]netlist.SignalID, 0, nFanin)
	for _, g := range c.Order {
		s := &c.Signals[g]
		lo := int32(len(p.fanin))
		p.fanin = append(p.fanin, s.Fanin...)
		p.code = append(p.code, instr{op: s.Op, inLo: lo, inHi: int32(len(p.fanin)), out: g})
	}
	for id := range c.Signals {
		p.isGate[id] = c.Signals[id].Kind == netlist.KindGate
	}
	return p, nil
}

// patch is the merged effect of every stem injection on one signal (or
// every branch injection on one pin): lanes in clear are forced, with
// ones/zeros carrying the forced plane bits.
type patch struct {
	clear, ones, zeros uint64
}

func (p *patch) add(lane uint, v logic.V) {
	bit := uint64(1) << lane
	p.clear |= bit
	p.ones &^= bit
	p.zeros &^= bit
	switch v {
	case logic.One:
		p.ones |= bit
	case logic.Zero:
		p.zeros |= bit
	}
}

func (p patch) apply(w logic.Word) logic.Word {
	return logic.Word{
		Ones:  w.Ones&^p.clear | p.ones,
		Zeros: w.Zeros&^p.clear | p.zeros,
	}
}

// pinPatch is a branch patch on one fanin pin of a gate or flip-flop.
type pinPatch struct {
	pin int
	patch
}

// CompiledComb is the compiled analogue of PackedComb: same lane
// semantics, dense injection bookkeeping.
type CompiledComb struct {
	P    *Program
	Vals []logic.Word

	stem    []patch      // per signal; clear == 0 means no stem injection
	branch  [][]pinPatch // per consuming gate/FF; empty means none
	touched []netlist.SignalID
}

// NewCompiledComb compiles c and returns an evaluator with all lanes X.
func NewCompiledComb(c *netlist.Circuit) *CompiledComb {
	return NewCompiledCombFrom(Compile(c))
}

// NewCompiledCombFrom returns an evaluator sharing an existing program.
func NewCompiledCombFrom(p *Program) *CompiledComb {
	return &CompiledComb{
		P:      p,
		Vals:   make([]logic.Word, len(p.C.Signals)),
		stem:   make([]patch, len(p.C.Signals)),
		branch: make([][]pinPatch, len(p.C.Signals)),
	}
}

// SetInjections installs the per-lane fault set for subsequent Eval
// calls, replacing any previous set. Lane 0 should be left fault-free
// to serve as the reference machine.
func (e *CompiledComb) SetInjections(injs []LaneInject) {
	for _, t := range e.touched {
		e.stem[t] = patch{}
		e.branch[t] = e.branch[t][:0]
	}
	e.touched = e.touched[:0]
	for _, li := range injs {
		if li.IsStem() {
			if e.stem[li.Signal].clear == 0 && len(e.branch[li.Signal]) == 0 {
				e.touched = append(e.touched, li.Signal)
			}
			e.stem[li.Signal].add(li.Lane, li.Value)
			continue
		}
		if e.stem[li.Gate].clear == 0 && len(e.branch[li.Gate]) == 0 {
			e.touched = append(e.touched, li.Gate)
		}
		pps := e.branch[li.Gate]
		merged := false
		for i := range pps {
			if pps[i].pin == li.Pin {
				pps[i].add(li.Lane, li.Value)
				merged = true
				break
			}
		}
		if !merged {
			pp := pinPatch{pin: li.Pin}
			pp.add(li.Lane, li.Value)
			e.branch[li.Gate] = append(pps, pp)
		}
	}
}

// Words returns the per-signal value slice (aliased, indexed by
// SignalID), mirroring PackedComb.Words.
func (e *CompiledComb) Words() []logic.Word { return e.Vals }

// ClearX resets every signal word to all-lanes-X.
func (e *CompiledComb) ClearX() {
	clear(e.Vals)
}

// Eval evaluates the compiled instruction stream across all lanes,
// applying the installed injections. PIs and FF outputs must be preset.
func (e *CompiledComb) Eval() {
	p := e.P
	// Stem injections on PIs and FF outputs take effect before gate eval.
	for _, t := range e.touched {
		if pt := e.stem[t]; pt.clear != 0 && !p.isGate[t] {
			e.Vals[t] = pt.apply(e.Vals[t])
		}
	}
	vals := e.Vals
	fanin := p.fanin
	var buf [8]logic.Word
	for i := range p.code {
		ins := &p.code[i]
		in := fanin[ins.inLo:ins.inHi]
		var w logic.Word
		if br := e.branch[ins.out]; len(br) != 0 {
			// Injection path: materialize the patched fanin words.
			tmp := buf[:0]
			for _, f := range in {
				tmp = append(tmp, vals[f])
			}
			for _, pp := range br {
				tmp[pp.pin] = pp.apply(tmp[pp.pin])
			}
			w = ins.op.EvalWord(tmp)
		} else {
			w = evalDirect(ins.op, vals, in)
		}
		if pt := e.stem[ins.out]; pt.clear != 0 {
			w = pt.apply(w)
		}
		vals[ins.out] = w
	}
}

// evalDirect evaluates op over the fanin signals without copying the
// input words — the hot path for the (overwhelming) injection-free case.
// The trailing panic is an unreachable invariant: CompileChecked rejects
// unknown operators before any instruction is emitted.
func evalDirect(op logic.Op, vals []logic.Word, in []netlist.SignalID) logic.Word {
	switch op {
	case logic.OpBuf:
		return vals[in[0]]
	case logic.OpNot:
		return vals[in[0]].Not()
	case logic.OpAnd, logic.OpNand:
		acc := vals[in[0]]
		for _, f := range in[1:] {
			o := vals[f]
			acc = logic.Word{Ones: acc.Ones & o.Ones, Zeros: acc.Zeros | o.Zeros}
		}
		if op == logic.OpNand {
			return acc.Not()
		}
		return acc
	case logic.OpOr, logic.OpNor:
		acc := vals[in[0]]
		for _, f := range in[1:] {
			o := vals[f]
			acc = logic.Word{Ones: acc.Ones | o.Ones, Zeros: acc.Zeros & o.Zeros}
		}
		if op == logic.OpNor {
			return acc.Not()
		}
		return acc
	case logic.OpXor, logic.OpXnor:
		acc := vals[in[0]]
		for _, f := range in[1:] {
			acc = acc.Xor(vals[f])
		}
		if op == logic.OpXnor {
			return acc.Not()
		}
		return acc
	case logic.OpConst0:
		return logic.WordAll(logic.Zero)
	case logic.OpConst1:
		return logic.WordAll(logic.One)
	}
	panic("sim: compiled eval of unknown op")
}

// FFNext returns the packed value presented at the D pin of flip-flop
// ff, honouring branch injections on that pin.
func (e *CompiledComb) FFNext(ff netlist.SignalID) logic.Word {
	w := e.Vals[e.P.C.Signals[ff].Fanin[0]]
	if br := e.branch[ff]; len(br) != 0 {
		for _, pp := range br {
			if pp.pin == 0 {
				w = pp.apply(w)
			}
		}
	}
	return w
}

// CompiledSeq is the compiled 64-lane sequential simulator, the drop-in
// analogue of PackedSeq.
type CompiledSeq struct {
	CompiledComb
	state []logic.Word
}

// NewCompiledSeq compiles c and returns a sequential simulator with all
// state X.
func NewCompiledSeq(c *netlist.Circuit) *CompiledSeq {
	return NewCompiledSeqFrom(Compile(c))
}

// NewCompiledSeqFrom returns a sequential simulator sharing an existing
// program.
func NewCompiledSeqFrom(p *Program) *CompiledSeq {
	return &CompiledSeq{
		CompiledComb: *NewCompiledCombFrom(p),
		state:        make([]logic.Word, len(p.C.FFs)),
	}
}

// ResetX sets every flip-flop to X in all lanes.
func (s *CompiledSeq) ResetX() {
	clear(s.state)
}

// SetStateWord overwrites the packed state of one flip-flop (by index
// into c.FFs).
func (s *CompiledSeq) SetStateWord(ffIndex int, w logic.Word) {
	s.state[ffIndex] = w
}

// StateWord returns the packed state of one flip-flop (by c.FFs index).
func (s *CompiledSeq) StateWord(ffIndex int) logic.Word { return s.state[ffIndex] }

// Cycle applies one clock, mirroring PackedSeq.Cycle.
func (s *CompiledSeq) Cycle(pi []logic.Word, po []logic.Word) []logic.Word {
	c := s.P.C
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
