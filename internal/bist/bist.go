// Package bist provides built-in self-test infrastructure for
// functional scan designs: an LFSR pseudo-random pattern generator
// driving the scan-in pins and free inputs, and a MISR compacting the
// output responses into a signature. The paper's related work
// (Avra, "Orthogonal built-in self-test", its reference [2]) applies
// functional scan inside BIST; this package lets the chain test itself
// run that way — stimulus from an LFSR, verdict from one signature
// compare — and quantifies the price: aliasing, where a faulty response
// stream compacts to the fault-free signature.
package bist

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
)

// maximalTapBits holds the tap exponents of maximal-length LFSR
// polynomials (Xilinx XAPP052 table); a Fibonacci left-shift LFSR with
// feedback = XOR of state bits (exponent-1) cycles through all 2^n - 1
// non-zero states.
var maximalTapBits = map[int][]uint{
	8:  {8, 6, 5, 4},
	16: {16, 15, 13, 4},
	24: {24, 23, 22, 17},
	32: {32, 22, 2, 1},
	48: {48, 47, 21, 20},
	64: {64, 63, 61, 60},
}

// LFSR is a Fibonacci (external-XOR) left-shift linear-feedback shift
// register.
type LFSR struct {
	state uint64
	taps  uint64 // bit mask at positions exponent-1
	mask  uint64
	width int
}

// NewLFSR builds an LFSR of the given width (8, 16, 24, 32, 48 or 64)
// seeded with a non-zero state.
func NewLFSR(width int, seed uint64) (*LFSR, error) {
	bits, ok := maximalTapBits[width]
	if !ok {
		return nil, fmt.Errorf("bist: no maximal polynomial for width %d", width)
	}
	var taps uint64
	for _, b := range bits {
		taps |= 1 << (b - 1)
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = uint64(1)<<uint(width) - 1
	}
	seed &= mask
	if seed == 0 {
		seed = 1
	}
	return &LFSR{state: seed, taps: taps, mask: mask, width: width}, nil
}

// NextBit advances the register one step and returns the output bit
// (the bit shifted out of the top).
func (l *LFSR) NextBit() logic.V {
	out := (l.state >> uint(l.width-1)) & 1
	fb := uint64(0)
	if popcountParity(l.state & l.taps) {
		fb = 1
	}
	l.state = ((l.state << 1) | fb) & l.mask
	return logic.V(out)
}

// State returns the current register contents.
func (l *LFSR) State() uint64 { return l.state }

func popcountParity(x uint64) bool {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x&1 == 1
}

// Weighting selects the 1-density of generated bits. Weighted random
// patterns (ANDing or ORing LFSR bits) are the classic fix when uniform
// patterns under-exercise deep AND/OR cones.
type Weighting uint8

// Supported 1-densities.
const (
	Uniform    Weighting = iota // p(1) = 1/2
	Quarter                     // p(1) = 1/4 (AND of two bits)
	ThreeQuart                  // p(1) = 3/4 (OR of two bits)
	Eighth                      // p(1) = 1/8 (AND of three bits)
)

// WeightedBit draws one bit with the selected density, consuming one or
// more LFSR steps.
func (l *LFSR) WeightedBit(w Weighting) logic.V {
	switch w {
	case Quarter:
		a, b := l.NextBit(), l.NextBit()
		return a.And(b)
	case ThreeQuart:
		a, b := l.NextBit(), l.NextBit()
		return a.Or(b)
	case Eighth:
		a, b, c := l.NextBit(), l.NextBit(), l.NextBit()
		return a.And(b).And(c)
	default:
		return l.NextBit()
	}
}

// MISR is a multi-input signature register: every cycle it folds one
// response bit per output into its state through the same feedback
// polynomial as the LFSR of equal width.
type MISR struct {
	state uint64
	taps  uint64
	width int
}

// NewMISR builds a MISR of the given width.
func NewMISR(width int) (*MISR, error) {
	bits, ok := maximalTapBits[width]
	if !ok {
		return nil, fmt.Errorf("bist: no maximal polynomial for width %d", width)
	}
	var taps uint64
	for _, b := range bits {
		taps |= 1 << (b - 1)
	}
	return &MISR{taps: taps, width: width}, nil
}

// Fold compacts one cycle of output values. X responses inject a fixed
// non-zero code so that an unknown never silently equals the fault-free
// stream (BIST practice is to keep X out of compacted outputs; the
// deterministic code at least makes X-polluted signatures distinct from
// clean ones in this model).
func (m *MISR) Fold(po []logic.V) {
	for i, v := range po {
		bit := uint64(0)
		switch v {
		case logic.One:
			bit = 1
		case logic.X:
			bit = uint64(i&1) ^ 1
		}
		fb := popcountParity(m.state&m.taps) != (bit == 1)
		m.state >>= 1
		if fb {
			m.state |= 1 << uint(m.width-1)
		}
	}
}

// Signature returns the compacted state.
func (m *MISR) Signature() uint64 { return m.state }

// The chain self-test session: a 32-bit LFSR seeded with lfsrSeed
// drives uniform random bits for 4*maxchain+cycleSlack cycles, and a
// 32-bit MISR compacts the responses.
const (
	lfsrWidth  = 32
	misrWidth  = 32
	lfsrSeed   = 0xACE1
	cycleSlack = 64
)

// config holds the session parameters the tests vary (seed, MISR
// width, length, weighting); Run and GoldenSignature always use
// sessionConfig.
type config struct {
	cycles    int
	misrWidth int
	seed      uint64
	weight    Weighting
}

func sessionConfig(d *scan.Design) config {
	return config{cycles: 4*d.MaxChainLen() + cycleSlack, misrWidth: misrWidth, seed: lfsrSeed, weight: Uniform}
}

// stimulus generates the BIST input sequence for a design: scan mode
// asserted, pinned inputs at their TPI constants, every other input
// (scan-ins included) driven from the LFSR.
func stimulus(d *scan.Design, cfg config) ([][]logic.V, error) {
	l, err := NewLFSR(lfsrWidth, cfg.seed)
	if err != nil {
		return nil, err
	}
	seq := make([][]logic.V, cfg.cycles)
	for t := range seq {
		pi := d.BaselinePI()
		for i, in := range d.C.Inputs {
			if _, pinned := d.Assignments[in]; !pinned {
				pi[i] = l.WeightedBit(cfg.weight)
			}
		}
		seq[t] = pi
	}
	return seq, nil
}

// GoldenSignature simulates the fault-free design under the BIST
// stimulus and returns the reference signature.
func GoldenSignature(d *scan.Design) (uint64, error) { return goldenSignature(d, sessionConfig(d)) }

func goldenSignature(d *scan.Design, cfg config) (uint64, error) {
	seq, err := stimulus(d, cfg)
	if err != nil {
		return 0, err
	}
	return signatureOf(d, seq, nil, cfg)
}

func signatureOf(d *scan.Design, seq [][]logic.V, inj *sim.Inject, cfg config) (uint64, error) {
	m, err := NewMISR(cfg.misrWidth)
	if err != nil {
		return 0, err
	}
	s := sim.NewSeq(d.C)
	var po []logic.V
	for _, pi := range seq {
		po = s.Cycle(pi, inj, po)
		m.Fold(po)
	}
	return m.Signature(), nil
}

// Result of a BIST session over a fault list.
type Result struct {
	Golden uint64
	// DetectedBySignature: faults whose signature differs from golden.
	DetectedBySignature int
	// DetectedByCompare: faults a per-cycle compare would catch (the
	// upper bound a compactor can reach).
	DetectedByCompare int
	// Aliased: caught by per-cycle compare but compacting to the golden
	// signature — the MISR's escape count.
	Aliased int
	// AliasedFaults lists them for inspection.
	AliasedFaults []fault.Fault
}

// Run executes the self-test against every fault: one fault-free pass
// for the golden signature, then one faulty pass per fault (signatures
// must be computed serially — each faulty machine owns a MISR).
func Run(d *scan.Design, faults []fault.Fault) (*Result, error) {
	return run(d, faults, sessionConfig(d))
}

func run(d *scan.Design, faults []fault.Fault, cfg config) (*Result, error) {
	seq, err := stimulus(d, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	res.Golden, err = signatureOf(d, seq, nil, cfg)
	if err != nil {
		return nil, err
	}
	// Per-cycle compare ground truth via the packed simulator.
	psRes := packedCompare(d, seq, faults)

	for i, f := range faults {
		if psRes[i] < 0 {
			continue // not even a compare catches it: irrelevant for aliasing
		}
		res.DetectedByCompare++
		inj := f.Inject()
		sig, err := signatureOf(d, seq, &inj, cfg)
		if err != nil {
			return nil, err
		}
		if sig != res.Golden {
			res.DetectedBySignature++
		} else {
			res.Aliased++
			res.AliasedFaults = append(res.AliasedFaults, f)
		}
	}
	return res, nil
}

// packedCompare returns the first definite-mismatch cycle per fault
// (-1 when none), using 63 machines per pass.
func packedCompare(d *scan.Design, seq [][]logic.V, faults []fault.Fault) []int {
	out := make([]int, len(faults))
	for i := range out {
		out[i] = -1
	}
	ps := sim.NewCompiledSeq(d.C)
	piW := make([]logic.Word, len(d.C.Inputs))
	var poW []logic.Word
	for base := 0; base < len(faults); base += 63 {
		n := len(faults) - base
		if n > 63 {
			n = 63
		}
		injs := make([]sim.LaneInject, 0, n)
		for k := 0; k < n; k++ {
			injs = append(injs, sim.LaneInject{Inject: faults[base+k].Inject(), Lane: uint(k + 1)})
		}
		ps.SetInjections(injs)
		ps.ResetX()
		laneMask := (uint64(1)<<uint(n+1) - 1) &^ 1
		found := uint64(0)
		for cyc, pi := range seq {
			for i, v := range pi {
				piW[i] = logic.WordAll(v)
			}
			poW = ps.Cycle(piW, poW)
			for _, w := range poW {
				var det uint64
				switch w.Get(0) {
				case logic.One:
					det = w.Zeros & laneMask &^ found
				case logic.Zero:
					det = w.Ones & laneMask &^ found
				}
				if det != 0 {
					for k := 0; k < n; k++ {
						if det&(uint64(1)<<uint(k+1)) != 0 {
							out[base+k] = cyc
						}
					}
					found |= det
				}
			}
			if found == laneMask {
				break
			}
		}
	}
	return out
}
