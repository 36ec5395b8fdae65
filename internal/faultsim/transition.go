package faultsim

import (
	"context"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/par"
)

// TransitionFault is a gross-delay fault: when the site's value makes a
// transition in the slow direction, the new value arrives one clock
// late (the classic slow-to-rise / slow-to-fall model). The paper's
// motivation for functional scan includes the chain's timing (it can
// remove the scan mux from critical paths), and shift testing creates
// launch/capture pairs on every chain net for free — this model makes
// that testable.
type TransitionFault struct {
	Signal   netlist.SignalID // faulty net (stem) or branch source
	Gate     netlist.SignalID // consumer for branch faults; netlist.None for stem
	Pin      int              // -1 for stem
	SlowRise bool             // true: 0->1 late; false: 1->0 late
}

// IsStem reports whether the fault sits on the whole net.
func (f TransitionFault) IsStem() bool { return f.Gate == netlist.None }

// slowDirectionDelayed returns the externally visible value given the
// previous and currently computed site values.
func (f TransitionFault) delayed(prev, now logic.V) logic.V {
	if !prev.Known() || !now.Known() || prev == now {
		return now
	}
	if f.SlowRise && now == logic.One {
		return prev // rising edge arrives late
	}
	if !f.SlowRise && now == logic.Zero {
		return prev // falling edge arrives late
	}
	return now
}

// transitionMachine simulates one faulty machine with the delay model:
// a plain levelized evaluation whose site output is the delayed view of
// the underlying value.
type transitionMachine struct {
	c     *netlist.Circuit
	f     TransitionFault
	vals  []logic.V
	state []logic.V
	prev  logic.V // underlying site value at the previous cycle
}

func newTransitionMachine(c *netlist.Circuit, f TransitionFault) *transitionMachine {
	m := &transitionMachine{
		c:     c,
		f:     f,
		vals:  make([]logic.V, len(c.Signals)),
		state: make([]logic.V, len(c.FFs)),
		prev:  logic.X,
	}
	for i := range m.state {
		m.state[i] = logic.X
	}
	return m
}

func (m *transitionMachine) cycle(pi []logic.V, po []logic.V) []logic.V {
	c := m.c
	for i := range m.vals {
		m.vals[i] = logic.X
	}
	for i, in := range c.Inputs {
		m.vals[in] = pi[i]
	}
	for i, ff := range c.FFs {
		m.vals[ff] = m.state[i]
	}
	// underlying is the site's true (undelayed) value this cycle; prev
	// is last cycle's. The delayed view replaces the site value at its
	// point of consumption.
	underlying := logic.X
	prev := m.prev
	siteIsGate := m.f.IsStem() && c.IsGate(m.f.Signal)
	if m.f.IsStem() && !siteIsGate {
		underlying = m.vals[m.f.Signal]
		m.vals[m.f.Signal] = m.f.delayed(prev, underlying)
	}
	var buf [12]logic.V
	for _, g := range c.Order {
		s := &c.Signals[g]
		in := buf[:0]
		for pin, fi := range s.Fanin {
			v := m.vals[fi]
			if !m.f.IsStem() && m.f.Gate == g && m.f.Pin == pin {
				// Branch fault: the delayed view of the source net as
				// seen by this pin only.
				underlying = v
				v = m.f.delayed(prev, underlying)
			}
			in = append(in, v)
		}
		v := s.Op.Eval(in)
		if siteIsGate && m.f.Signal == g {
			underlying = v
			v = m.f.delayed(prev, underlying)
		}
		m.vals[g] = v
	}

	if cap(po) < len(c.Outputs) {
		po = make([]logic.V, len(c.Outputs))
	}
	po = po[:len(c.Outputs)]
	for i, o := range c.Outputs {
		po[i] = m.vals[o]
	}
	for i, ff := range c.FFs {
		d := m.vals[c.Signals[ff].Fanin[0]]
		if !m.f.IsStem() && m.f.Gate == ff && m.f.Pin == 0 {
			underlying = d
			d = m.f.delayed(prev, d)
		}
		m.state[i] = d
	}
	m.prev = underlying
	return po
}

// RunTransitionCtx simulates seq against every transition fault and
// reports the first cycle with a definite primary-output mismatch
// versus the fault-free machine. Transition machines carry per-cycle
// site history, so there is no packed (63-lane) variant; instead the
// fault axis itself is sharded across opts.Workers goroutines, each
// fault owning its machine and its result slot (identical output at
// any worker count).
//
// Cancellation follows RunCtx: faults not yet simulated when ctx fires
// stay at -1 in the partial result, every worker is joined, and the
// context error is returned. Fault slots are pre-marked undetected
// before the workers start so a cancelled run never leaves zero-valued
// (cycle-0) entries.
func RunTransitionCtx(ctx context.Context, c *netlist.Circuit, seq Sequence, faults []TransitionFault, opts Options) (*Result, error) {
	res := &Result{DetectedAt: make([]int, len(faults))}
	for i := range res.DetectedAt {
		res.DetectedAt[i] = -1
	}
	good := goodTrace(c, seq, opts)
	err := par.DoCtx(ctx, par.Workers(opts.Workers), len(faults), func(_, fi int) {
		m := newTransitionMachine(c, faults[fi])
		if opts.InitState != nil {
			copy(m.state, opts.InitState)
		}
		var po []logic.V
	cycles:
		for cyc, pi := range seq {
			po = m.cycle(pi, po)
			for o, v := range po {
				g := good[cyc][o]
				if g.Known() && v.Known() && g != v {
					res.DetectedAt[fi] = cyc
					break cycles
				}
			}
		}
	})
	return res, err
}

// ChainTransitionFaults enumerates both transition faults on every
// signal of the given nets (typically the on-path nets of a scan
// design's chains).
func ChainTransitionFaults(nets []netlist.SignalID) []TransitionFault {
	var out []TransitionFault
	for _, n := range nets {
		out = append(out,
			TransitionFault{Signal: n, Gate: netlist.None, Pin: -1, SlowRise: true},
			TransitionFault{Signal: n, Gate: netlist.None, Pin: -1, SlowRise: false},
		)
	}
	return out
}
