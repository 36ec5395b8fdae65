package faultsim

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// wire builds in -> DFF -> out so the chain behaviour of a single net
// is fully predictable.
func wire(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(`
INPUT(a)
OUTPUT(y)
ff = DFF(b)
b = BUFF(a)
y = BUFF(ff)
`, "wire")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func seqOf(bits string) Sequence {
	seq := make(Sequence, len(bits))
	for i, ch := range bits {
		v := logic.Zero
		if ch == '1' {
			v = logic.One
		}
		seq[i] = []logic.V{v}
	}
	return seq
}

func TestTransitionSlowToRiseDetected(t *testing.T) {
	c := wire(t)
	b, _ := c.Lookup("b")
	f := TransitionFault{Signal: b, Gate: netlist.None, Pin: -1, SlowRise: true}
	// 0,0,1,1: the 0->1 edge at cycle 2 arrives a cycle late in the
	// faulty machine; y shows the difference at cycle 3.
	res, _ := RunTransitionCtx(context.Background(), c, seqOf("0011"), []TransitionFault{f}, Options{
		InitState: []logic.V{logic.Zero},
	})
	if res.DetectedAt[0] != 3 {
		t.Errorf("slow-to-rise detected at %d, want 3", res.DetectedAt[0])
	}
	// A constant-0 stream never exercises the rising edge: undetected.
	res, _ = RunTransitionCtx(context.Background(), c, seqOf("000000"), []TransitionFault{f}, Options{
		InitState: []logic.V{logic.Zero},
	})
	if res.DetectedAt[0] != -1 {
		t.Errorf("slow-to-rise detected without a rising edge (cycle %d)", res.DetectedAt[0])
	}
}

func TestTransitionSlowToFall(t *testing.T) {
	c := wire(t)
	b, _ := c.Lookup("b")
	f := TransitionFault{Signal: b, Gate: netlist.None, Pin: -1, SlowRise: false}
	res, _ := RunTransitionCtx(context.Background(), c, seqOf("1100"), []TransitionFault{f}, Options{
		InitState: []logic.V{logic.One},
	})
	if res.DetectedAt[0] < 0 {
		t.Error("slow-to-fall escaped a falling edge")
	}
	// Rising edges do not trigger a slow-to-fall fault.
	res, _ = RunTransitionCtx(context.Background(), c, seqOf("0011"), []TransitionFault{f}, Options{
		InitState: []logic.V{logic.Zero},
	})
	if res.DetectedAt[0] >= 0 {
		t.Error("slow-to-fall detected by a rising-only stream")
	}
}

// TestAlternatingCoversChainTransitions: the period-4 alternating
// sequence launches both edges through every chain net, so (on the
// fault-free-elsewhere chain) it detects every transition fault on the
// chain path. This is the delay-test analogue of the paper's category-1
// argument.
func TestAlternatingCoversChainTransitions(t *testing.T) {
	// Built via the real TPI on s27 in the integration test below; here
	// use the plain wire chain with the canonical pattern.
	c := wire(t)
	b, _ := c.Lookup("b")
	faults := ChainTransitionFaults([]netlist.SignalID{b})
	if len(faults) != 2 {
		t.Fatalf("ChainTransitionFaults produced %d", len(faults))
	}
	res, _ := RunTransitionCtx(context.Background(), c, seqOf("00110011"), faults, Options{
		InitState: []logic.V{logic.Zero},
	})
	for i, at := range res.DetectedAt {
		if at < 0 {
			t.Errorf("chain transition fault %d escaped the alternating pattern", i)
		}
	}
}

func TestTransitionBranchFault(t *testing.T) {
	// Fanout a -> (g1, g2); delay only the g1 branch.
	c, err := bench.ParseString(`
INPUT(a)
OUTPUT(y)
OUTPUT(z)
y = BUFF(a)
z = BUFF(a)
`, "br")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Lookup("a")
	y, _ := c.Lookup("y")
	f := TransitionFault{Signal: a, Gate: y, Pin: 0, SlowRise: true}
	seq := seqOf("0011")
	res, _ := RunTransitionCtx(context.Background(), c, seq, []TransitionFault{f}, Options{})
	if res.DetectedAt[0] != 2 {
		t.Errorf("branch transition detected at %d, want 2", res.DetectedAt[0])
	}
}
