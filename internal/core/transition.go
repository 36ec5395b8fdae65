package core

import (
	"context"

	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// ChainNets collects every on-path net of the design's chains: the
// flip-flop outputs and the sensitized path gates between them — the
// nets whose timing the shift test exercises every cycle.
func ChainNets(d *scan.Design) []netlist.SignalID {
	seen := map[netlist.SignalID]bool{}
	var nets []netlist.SignalID
	add := func(n netlist.SignalID) {
		if !seen[n] {
			seen[n] = true
			nets = append(nets, n)
		}
	}
	for ci := range d.Chains {
		ch := &d.Chains[ci]
		for _, ff := range ch.FFs {
			add(ff)
		}
		for si := range ch.Segment {
			for _, p := range ch.Segment[si].Path {
				add(p)
			}
		}
	}
	return nets
}

// ChainTransitionCoverageCtx measures the delay-test side effect of
// the shift test: the alternating 0011… pattern launches both edges
// through every chain net, so it doubles as a two-pattern (transition
// fault) test for the chain itself. Returns detections over both
// slow-to-rise and slow-to-fall faults on every on-path net, with the
// fault axis sharded across workers goroutines (0 = GOMAXPROCS, 1 =
// serial); the result is identical at any width.
//
// This extends the paper (which tests stuck-at faults only) in the
// direction its own motivation points: functional scan exists partly to
// keep scan hardware off critical paths, so the chain's timing is worth
// checking too.
//
// Faults not simulated when ctx fires count as undetected in the
// partial result and the context error is returned. A nil context
// behaves like context.Background.
func ChainTransitionCoverageCtx(ctx context.Context, d *scan.Design, extraCycles, workers int) (detected, total int, undetected []faultsim.TransitionFault, err error) {
	faults := faultsim.ChainTransitionFaults(ChainNets(d))
	total = len(faults)
	if total == 0 {
		return 0, 0, nil, nil
	}
	// Two periods of the alternating pattern after a definite-fill
	// preamble, so every transition launches from a known state.
	alt := d.AlternatingSequence(extraCycles)
	res, err := faultsim.RunTransitionCtx(ctx, d.C, faultsim.Sequence(alt), faults, faultsim.Options{Workers: workers})
	for i, at := range res.DetectedAt {
		if at >= 0 {
			detected++
		} else {
			undetected = append(undetected, faults[i])
		}
	}
	return detected, total, undetected, err
}
