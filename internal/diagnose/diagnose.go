// Package diagnose locates scan-chain corruption: given a functional
// scan design and the observed responses of a failing device, it matches
// the observation against a fault dictionary built by parallel fault
// simulation and reports the candidate faults together with the chain
// locations they corrupt (from the screening analysis).
//
// This is the natural companion to the paper's methodology: the
// screening step already computes, per fault, *where* the chain is
// affected; the dictionary turns that map around — from observed
// misbehaviour back to suspect segments — which is what a failure
// analyst needs when a functional scan chain fails in silicon.
package diagnose

import (
	"context"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Signature is a compact digest of a device's response to the
// diagnostic sequences: an FNV-64 hash over every (cycle, output) value.
type Signature uint64

// Dictionary maps response signatures to candidate faults.
type Dictionary struct {
	Design *scan.Design
	Faults []fault.Fault
	Seqs   [][][]logic.V // diagnostic test sequences

	sigs   []Signature // per fault
	byHash map[Signature][]int
	good   Signature
}

// DefaultSequences returns the diagnostic stimulus set: the alternating
// shift test plus deterministic pseudo-random scan-mode sequences.
func DefaultSequences(d *scan.Design, seed uint64) [][][]logic.V {
	seqs := [][][]logic.V{d.AlternatingSequence(8)}
	rng := seed | 1
	next := func() logic.V {
		rng = rng*6364136223846793005 + 1442695040888963407
		return logic.V((rng >> 33) & 1)
	}
	for k := 0; k < 2; k++ {
		n := 3*d.MaxChainLen() + 32
		seq := make([][]logic.V, n)
		for t := range seq {
			pi := d.BaselinePI()
			for i, in := range d.C.Inputs {
				if _, pinned := d.Assignments[in]; !pinned {
					pi[i] = next()
				}
			}
			seq[t] = pi
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// BuildCtx simulates every candidate fault against the diagnostic
// sequences (63 machines per packed pass) and indexes the signatures.
// The 63-fault batches are sharded across workers goroutines (0 =
// GOMAXPROCS, 1 = serial). Every fault's hash state lives in its own
// slot and a fault belongs to exactly one batch, so the dictionary is
// identical at any worker count; the fault-free machine is hashed by
// whichever worker runs the first batch (every batch's lane 0 simulates
// the same fault-free device). The compiled program is drawn from the
// shared artifact cache, so building a dictionary for a circuit the
// flow already ran on costs no recompilation.
//
// Workers stop claiming fault batches once ctx fires and the context
// error is returned. A cancelled build yields a dictionary whose
// unsimulated faults carry the empty-trace signature — callers should
// discard it when err is non-nil.
//
// When col is non-nil the build's worker pool reports utilization (and,
// with a journal attached, per-batch flight-recorder events) under the
// "diagnose" pool, and the artifact-cache probe is accounted.
func BuildCtx(ctx context.Context, d *scan.Design, faults []fault.Fault, seqs [][][]logic.V, workers int, col *obs.Collector) (*Dictionary, error) {
	dict := &Dictionary{
		Design: d,
		Faults: faults,
		Seqs:   seqs,
		sigs:   make([]Signature, len(faults)),
		byHash: make(map[Signature][]int),
	}
	hashers := make([]hasher, len(faults)+1) // last entry: fault-free machine

	// Broadcast the stimulus to packed words once; every worker reads it.
	seqW := make([][][]logic.Word, len(seqs))
	for si, seq := range seqs {
		seqW[si] = make([][]logic.Word, len(seq))
		for t, pi := range seq {
			w := make([]logic.Word, len(pi))
			for i, v := range pi {
				w[i] = logic.WordAll(v)
			}
			seqW[si][t] = w
		}
	}

	prog := engine.Default().ForObs(d.C, col).Program(col)
	batches := par.Chunks(len(faults), 63)
	workers = par.Workers(workers)
	if workers > len(batches) {
		workers = len(batches)
	}
	type wstate struct {
		ps   *sim.CompiledSeq
		poW  []logic.Word
		injs []sim.LaneInject
	}
	states := make([]*wstate, workers)
	runBatch := func(st *wstate, base, n int, hashGood bool) {
		st.injs = st.injs[:0]
		for k := 0; k < n; k++ {
			st.injs = append(st.injs, sim.LaneInject{Inject: faults[base+k].Inject(), Lane: uint(k + 1)})
		}
		ps := st.ps
		ps.SetInjections(st.injs)
		for _, seq := range seqW {
			ps.ResetX()
			for _, piW := range seq {
				st.poW = ps.Cycle(piW, st.poW)
				for _, w := range st.poW {
					if hashGood {
						hashers[len(faults)].add(w.Get(0))
					}
					for k := 0; k < n; k++ {
						hashers[base+k].add(w.Get(uint(k + 1)))
					}
				}
			}
		}
	}
	var err error
	if len(batches) == 0 {
		// No candidates: still hash the fault-free reference.
		runBatch(&wstate{ps: sim.NewCompiledSeqFrom(prog)}, 0, 0, true)
		if ctx != nil {
			err = ctx.Err()
		}
	} else {
		body := func(worker, bi int) {
			st := states[worker]
			if st == nil {
				st = &wstate{ps: sim.NewCompiledSeqFrom(prog), injs: make([]sim.LaneInject, 0, 63)}
				states[worker] = st
			}
			runBatch(st, batches[bi].Lo, batches[bi].Len(), bi == 0)
		}
		err = par.DoPoolCtx(ctx, workers, len(batches), "diagnose", col, body)
	}
	for i := range faults {
		s := Signature(hashers[i].sum())
		dict.sigs[i] = s
		dict.byHash[s] = append(dict.byHash[s], i)
	}
	dict.good = Signature(hashers[len(faults)].sum())
	return dict, err
}

type hasher struct {
	h     uint64
	init  bool
	count int
}

func (h *hasher) add(v logic.V) {
	if !h.init {
		h.h = 1469598103934665603 // FNV offset basis
		h.init = true
	}
	h.h ^= uint64(v) + 1
	h.h *= 1099511628211
	h.count++
}

func (h *hasher) sum() uint64 {
	if !h.init {
		f := fnv.New64a()
		return f.Sum64()
	}
	return h.h
}

// Observe computes the signature of a device under test. The device is
// abstracted as a response function so tests can plug in a simulated
// faulty machine and real flows could plug in tester data.
type Device interface {
	// Respond returns the primary-output trace for a sequence, one
	// value per (cycle, output).
	Respond(seq [][]logic.V) [][]logic.V
}

// Observe runs the dictionary's sequences on the device and hashes the
// responses.
func (dict *Dictionary) Observe(dev Device) Signature {
	var h hasher
	for _, seq := range dict.Seqs {
		for _, po := range dev.Respond(seq) {
			for _, v := range po {
				h.add(v)
			}
		}
	}
	return Signature(h.sum())
}

// GoodSignature is the fault-free reference signature.
func (dict *Dictionary) GoodSignature() Signature { return dict.good }

// Match returns the candidate faults whose signature equals the
// observation (fault equivalence naturally yields several).
func (dict *Dictionary) Match(s Signature) []fault.Fault {
	var out []fault.Fault
	for _, i := range dict.byHash[s] {
		out = append(out, dict.Faults[i])
	}
	return out
}

// Suspect is a localized corruption site.
type Suspect struct {
	Chain    int
	LoSeg    int
	HiSeg    int
	Faults   []fault.Fault
	Category core.Category
}

// Localize matches the observation and folds the screening locations of
// every matched fault into per-chain segment ranges — the repair/FA
// starting point.
func (dict *Dictionary) Localize(s Signature) []Suspect {
	matches := dict.Match(s)
	if len(matches) == 0 {
		return nil
	}
	screened, _ := core.ScreenCtx(context.TODO(), dict.Design, matches, core.ScreenOptions{})
	byChain := map[int]*Suspect{}
	for _, sc := range screened {
		for _, loc := range sc.Locs {
			sus, ok := byChain[loc.Chain]
			if !ok {
				sus = &Suspect{Chain: loc.Chain, LoSeg: loc.Seg, HiSeg: loc.Seg}
				byChain[loc.Chain] = sus
			}
			if loc.Seg < sus.LoSeg {
				sus.LoSeg = loc.Seg
			}
			if loc.Seg > sus.HiSeg {
				sus.HiSeg = loc.Seg
			}
			if sc.Cat > sus.Category {
				sus.Category = sc.Cat
			}
		}
	}
	var out []Suspect
	for ci := 0; ci < len(dict.Design.Chains); ci++ {
		if sus, ok := byChain[ci]; ok {
			sus.Faults = matches
			out = append(out, *sus)
		}
	}
	return out
}

// SimulatedDevice wraps a circuit with a hidden injected fault — the
// test double for a failing die.
type SimulatedDevice struct {
	C      *netlist.Circuit
	Hidden *fault.Fault // nil = fault-free device
}

// Respond implements Device by scalar simulation.
func (sd *SimulatedDevice) Respond(seq [][]logic.V) [][]logic.V {
	s := sim.NewSeq(sd.C)
	var inj *sim.Inject
	if sd.Hidden != nil {
		in := sd.Hidden.Inject()
		inj = &in
	}
	out := make([][]logic.V, 0, len(seq))
	var po []logic.V
	for _, pi := range seq {
		po = s.Cycle(pi, inj, po)
		out = append(out, append([]logic.V(nil), po...))
	}
	return out
}
