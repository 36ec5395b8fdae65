// Package seqatpg implements time-frame-expansion sequential ATPG for
// scan-mode circuits, with the paper's enhanced controllability /
// observability models (Section 5): under the single-fault assumption
// the chain ahead of the first affected location is fault-free (treated
// as directly controllable) and the chain after the last location is
// fault-free (treated as directly observable).
//
// A Model unrolls the scan-mode circuit over a fixed number of frames
// into one combinational circuit; controllable flip-flops become free
// pseudo-inputs in every frame, observable flip-flops get their D pins
// tapped as outputs in every frame, and remaining flip-flops connect
// frame to frame (frame 0 held at X). PODEM then runs with the fault
// injected once per frame. A found per-frame assignment is translated
// back into a real scan-in stream through the fault-free prefix
// (FF_p(t) = SI(t-p-1) XOR parity_p); translation conflicts are counted
// and every generated test is meant to be confirmed by sequential fault
// simulation on the true circuit — the caller must treat only confirmed
// detections as detections.
package seqatpg

import (
	"context"
	"fmt"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	obsPkg "repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Model is a k-frame unrolled scan-mode circuit ready for PODEM.
type Model struct {
	Design *scan.Design
	Frames int

	uc  *netlist.Circuit // unrolled combinational circuit
	m   *atpg.Model
	eng *atpg.Engine

	sigAt [][]netlist.SignalID // [frame][orig signal] -> model signal (None if absent)
	dObs  [][]netlist.SignalID // [frame][orig FF index] -> observation buffer or None

	ctrl map[netlist.SignalID]bool
	obs  map[netlist.SignalID]bool

	// Metric sinks (nil-safe no-ops until Instrument is called).
	conflictCtr *obsPkg.Counter
	noSiteCtr   *obsPkg.Counter
}

// Instrument attaches the model's PODEM engine to a collector under
// prefix.* (see atpg.Engine.Instrument) and additionally records
// prefix.translation_conflicts (scan-in cells two constraints disagreed
// on) and prefix.no_site (faults with no injection site in this model).
// A nil collector leaves the model uninstrumented.
func (m *Model) Instrument(col *obsPkg.Collector, prefix string) {
	if !col.Enabled() {
		return
	}
	m.eng.Instrument(col, prefix)
	m.conflictCtr = col.Counter(prefix + ".translation_conflicts")
	m.noSiteCtr = col.Counter(prefix + ".no_site")
}

// Build unrolls design d over frames frames with the given controllable
// and observable flip-flop sets (keyed by FF signal in d.C).
func Build(d *scan.Design, ctrl, obs map[netlist.SignalID]bool, frames int) (*Model, error) {
	if frames < 1 {
		return nil, fmt.Errorf("seqatpg: frames must be >= 1")
	}
	orig := d.C
	uc := netlist.New(fmt.Sprintf("%s$tfx%d", orig.Name, frames))
	fixed := make(map[netlist.SignalID]logic.V)

	sigAt := make([][]netlist.SignalID, frames)
	for t := range sigAt {
		sigAt[t] = make([]netlist.SignalID, len(orig.Signals))
		for i := range sigAt[t] {
			sigAt[t][i] = netlist.None
		}
	}
	name := func(s netlist.SignalID, t int) string {
		return fmt.Sprintf("%s@%d", orig.NameOf(s), t)
	}

	for t := 0; t < frames; t++ {
		// Inputs and flip-flop outputs first (frame sources).
		for _, in := range orig.Inputs {
			id, err := uc.AddInput(name(in, t))
			if err != nil {
				return nil, err
			}
			sigAt[t][in] = id
			if v, ok := d.Assignments[in]; ok {
				fixed[id] = v
			}
		}
		for _, ff := range orig.FFs {
			switch {
			case ctrl[ff]:
				id, err := uc.AddInput(name(ff, t))
				if err != nil {
					return nil, err
				}
				sigAt[t][ff] = id
			case t == 0:
				// Uncontrolled initial state: an input held at X that
				// PODEM may not decide on.
				id, err := uc.AddInput(name(ff, t))
				if err != nil {
					return nil, err
				}
				sigAt[t][ff] = id
				fixed[id] = logic.X
			default:
				// Connected to the previous frame's D value.
				prevD := sigAt[t-1][orig.Signals[ff].Fanin[0]]
				id, err := uc.AddGate(name(ff, t), logic.OpBuf, prevD)
				if err != nil {
					return nil, err
				}
				sigAt[t][ff] = id
			}
		}
		// Gates in topological order so fanins exist.
		for _, g := range orig.Order {
			fanin := make([]netlist.SignalID, len(orig.Signals[g].Fanin))
			for i, f := range orig.Signals[g].Fanin {
				fanin[i] = sigAt[t][f]
			}
			id, err := uc.AddGate(name(g, t), orig.Signals[g].Op, fanin...)
			if err != nil {
				return nil, err
			}
			sigAt[t][g] = id
		}
	}

	// Observation points: every primary output in every frame, plus D-pin
	// taps of observable flip-flops in every frame.
	for t := 0; t < frames; t++ {
		for _, o := range orig.Outputs {
			if err := uc.MarkOutput(sigAt[t][o]); err != nil {
				return nil, err
			}
		}
	}
	dObs := make([][]netlist.SignalID, frames)
	for t := 0; t < frames; t++ {
		dObs[t] = make([]netlist.SignalID, len(orig.FFs))
		for i, ff := range orig.FFs {
			dObs[t][i] = netlist.None
			if !obs[ff] {
				continue
			}
			d0 := sigAt[t][orig.Signals[ff].Fanin[0]]
			id, err := uc.AddGate(fmt.Sprintf("%s$D@%d", orig.NameOf(ff), t), logic.OpBuf, d0)
			if err != nil {
				return nil, err
			}
			if err := uc.MarkOutput(id); err != nil {
				return nil, err
			}
			dObs[t][i] = id
		}
	}
	if err := uc.Finalize(); err != nil {
		return nil, err
	}
	am, err := atpg.NewModel(uc, fixed)
	if err != nil {
		return nil, err
	}
	return &Model{
		Design: d,
		Frames: frames,
		uc:     uc,
		m:      am,
		eng:    atpg.NewEngine(am),
		sigAt:  sigAt,
		dObs:   dObs,
		ctrl:   ctrl,
		obs:    obs,
	}, nil
}

// Circuit exposes the unrolled combinational circuit (for tests).
func (m *Model) Circuit() *netlist.Circuit { return m.uc }

// injections replicates fault f into every frame of the model.
func (m *Model) injections(f fault.Fault) []sim.Inject {
	orig := m.Design.C
	ffIndex := make(map[netlist.SignalID]int, len(orig.FFs))
	for i, ff := range orig.FFs {
		ffIndex[ff] = i
	}
	var injs []sim.Inject
	for t := 0; t < m.Frames; t++ {
		if f.IsStem() {
			injs = append(injs, sim.Inject{
				Signal: m.sigAt[t][f.Signal], Gate: netlist.None, Pin: -1, Value: f.Stuck,
			})
			continue
		}
		if orig.IsFF(f.Gate) {
			// Branch into a flip-flop D pin: affects the next frame's
			// state and, when observable, the D tap of this frame.
			i := ffIndex[f.Gate]
			if t+1 < m.Frames && !m.ctrl[f.Gate] {
				injs = append(injs, sim.Inject{
					Signal: m.sigAt[t][f.Signal], Gate: m.sigAt[t+1][f.Gate], Pin: 0, Value: f.Stuck,
				})
			}
			if tap := m.dObs[t][i]; tap != netlist.None {
				injs = append(injs, sim.Inject{
					Signal: m.sigAt[t][f.Signal], Gate: tap, Pin: 0, Value: f.Stuck,
				})
			}
			continue
		}
		injs = append(injs, sim.Inject{
			Signal: m.sigAt[t][f.Signal], Gate: m.sigAt[t][f.Gate], Pin: f.Pin, Value: f.Stuck,
		})
	}
	return injs
}

// Result of sequential test generation for one fault.
type Result struct {
	Status atpg.Status
	// Sequence is the translated real-circuit test (per-cycle primary
	// input vectors for the scan-mode circuit); valid when Status is
	// Found. It must be confirmed by fault simulation.
	Sequence [][]logic.V
	// Conflicts counts scan-in cells that two constraints disagreed on
	// during translation (deeper chain position wins).
	Conflicts  int
	Backtracks int
}

// GenerateCtx runs PODEM on the unrolled model and translates the
// result. Cancellation is checked at the underlying engine's backtrack
// boundaries: once ctx fires the search stops with an Aborted result
// and the context error.
func (m *Model) GenerateCtx(ctx context.Context, f fault.Fault, backtrackLimit int) (Result, error) {
	injs := m.injections(f)
	if len(injs) == 0 {
		// The fault has no site in this model (e.g. a D-pin branch of a
		// flip-flop declared controllable): no verdict.
		m.noSiteCtr.Inc()
		return Result{Status: atpg.Aborted}, nil
	}
	res, err := m.eng.GenerateMultiCtx(ctx, injs, backtrackLimit)
	out := Result{Status: res.Status, Backtracks: res.Backtracks}
	if err != nil || res.Status != atpg.Found {
		return out, err
	}
	out.Sequence, out.Conflicts = m.translate(res.Assignment)
	m.conflictCtr.Add(int64(out.Conflicts))
	return out, nil
}

// translate converts a per-frame model assignment into a real scan-mode
// input sequence: a shift preamble loads the controllable-prefix
// constraints, then the frame windows play out, then a full-length flush
// shifts every captured effect to the scan-outs.
func (m *Model) translate(asn map[netlist.SignalID]logic.V) ([][]logic.V, int) {
	d := m.Design
	orig := d.C
	L := d.MaxChainLen()
	t0 := L // preamble length: one full shift window
	total := t0 + m.Frames + L

	seq := make([][]logic.V, total)
	for i := range seq {
		seq[i] = d.BaselinePI()
	}

	// Reverse map: model input -> (orig signal, frame).
	type key struct {
		sig netlist.SignalID
		t   int
	}
	rev := make(map[netlist.SignalID]key)
	for t := 0; t < m.Frames; t++ {
		for _, in := range orig.Inputs {
			rev[m.sigAt[t][in]] = key{in, t}
		}
		for _, ff := range orig.FFs {
			if m.ctrl[ff] {
				rev[m.sigAt[t][ff]] = key{ff, t}
			}
		}
	}

	// Scan-in solving: chain -> cycle -> (value, priority position).
	type cell struct {
		v   logic.V
		pos int
		set bool
	}
	si := make([][]cell, len(d.Chains))
	for i := range si {
		si[i] = make([]cell, total)
	}
	conflicts := 0

	for modelIn, v := range asn {
		k, ok := rev[modelIn]
		if !ok || !v.Known() {
			continue
		}
		if orig.IsPI(k.sig) {
			// Free primary input constrained at frame k.t -> real cycle
			// t0 + k.t.
			idx, _ := d.InputIndex(k.sig)
			seq[t0+k.t][idx] = v
			continue
		}
		// Controllable flip-flop constraint: FF k.sig = v at start of
		// real cycle t0+k.t.
		ci, pos, ok := d.FFPosition(k.sig)
		if !ok {
			continue
		}
		ch := &d.Chains[ci]
		cycle := t0 + k.t - 1 - pos
		if cycle < 0 {
			conflicts++
			continue
		}
		want := v
		if ch.ParityTo(pos) {
			want = want.Not()
		}
		c := &si[ci][cycle]
		if c.set && c.v != want {
			conflicts++
			if pos > c.pos {
				c.v, c.pos = want, pos
			}
			continue
		}
		c.v, c.pos, c.set = want, pos, true
	}

	for ci := range d.Chains {
		idx, _ := d.InputIndex(d.Chains[ci].ScanIn)
		for t := 0; t < total; t++ {
			if si[ci][t].set {
				seq[t][idx] = si[ci][t].v
			}
		}
	}
	return seq, conflicts
}
