// Package core implements the paper's functional scan chain testing
// methodology: identify the faults that affect the scan chain by forward
// implication (Section 3), detect the easy ones with the alternating
// sequence (step 1), run combinational ATPG plus sequential fault
// simulation in scan mode (step 2, Section 4), and finish the stragglers
// with grouped sequential ATPG on enhanced controllability/observability
// circuit models (step 3, Section 5).
package core

import (
	"context"
	"slices"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Category classifies how a fault relates to the scan chain (paper
// Section 3).
type Category uint8

// Fault categories.
const (
	// Cat3: the fault does not affect the scan chain.
	Cat3 Category = iota
	// Cat1 (easy): under the fault some net on the scan path is pinned
	// to a constant — the alternating sequence detects it.
	Cat1
	// Cat2 (hard, f_hard): under the fault a side input of the scan
	// path becomes unknown — the alternating sequence may miss it.
	Cat2
)

func (c Category) String() string {
	switch c {
	case Cat1:
		return "easy"
	case Cat2:
		return "hard"
	default:
		return "unaffecting"
	}
}

// Location is one place a fault touches a chain: segment Seg of chain
// Chain (the link loading the chain's FF at position Seg). Seg equal to
// the chain length denotes the scan-out tap after the last flip-flop.
type Location struct {
	Chain, Seg int
}

// Screened is the screening verdict for one fault.
type Screened struct {
	Fault fault.Fault
	Cat   Category
	Locs  []Location // all touch points, sorted by (chain, seg)
}

// Span returns the first/last location and whether the fault touches
// more than one chain.
func (s *Screened) Span() (first, last Location, multiChain bool) {
	if len(s.Locs) == 0 {
		return Location{}, Location{}, false
	}
	first, last = s.Locs[0], s.Locs[len(s.Locs)-1]
	multiChain = first.Chain != last.Chain
	return
}

// ScreenOptions tunes the screening engine's execution.
type ScreenOptions struct {
	// Workers shards the 63-fault batches across this many goroutines,
	// each owning a private compiled evaluator. 0 selects GOMAXPROCS; 1
	// forces serial. Output is identical at any width.
	Workers int
	// Cache supplies the shared circuit-artifact cache. Nil selects
	// engine.Default().
	Cache *engine.Cache
	// Obs, when non-nil, receives screen.* counters (faults, batches,
	// per-category verdicts) and the "screen" worker-pool utilization.
	Obs *obs.Collector
}

// Screen computes the forward-implication categorization of every fault
// against the scan design with default options (parallel, compiled
// evaluator); see ScreenOpt.
func Screen(d *scan.Design, faults []fault.Fault) []Screened {
	return ScreenOpt(d, faults, ScreenOptions{})
}

// ScreenOpt computes the forward-implication categorization of every
// fault against the scan design: one three-valued scan-mode evaluation
// per fault (batched 63 wide), comparing on-path nets (X in the good
// circuit; a definite value under the fault means category 1) and side
// inputs (definite non-controlling in the good circuit; X under the
// fault means category 2). Batches are sharded across workers; each
// fault's verdict lives in its own output slot, so the result does not
// depend on the worker count.
func ScreenOpt(d *scan.Design, faults []fault.Fault, opts ScreenOptions) []Screened {
	out, _ := ScreenOptCtx(nil, d, faults, opts)
	return out
}

// ScreenOptCtx is ScreenOpt with cooperative cancellation: workers stop
// claiming fault batches once ctx is cancelled (bounded by one in-flight
// batch per worker), all workers are joined, and the context error is
// returned with the partial verdicts. Faults whose batch never ran keep
// the Cat3 default. A nil context behaves like context.Background.
func ScreenOptCtx(ctx context.Context, d *scan.Design, faults []fault.Fault, opts ScreenOptions) ([]Screened, error) {
	c := d.C
	out := make([]Screened, len(faults))
	for i := range out {
		out[i] = Screened{Fault: faults[i], Cat: Cat3}
	}

	// Per-segment net lists, precomputed once.
	type segNets struct {
		loc   Location
		path  []netlist.SignalID
		sides []netlist.SignalID
	}
	var segs []segNets
	type qNet struct {
		net netlist.SignalID
		loc Location
	}
	var qs []qNet
	for ci := range d.Chains {
		ch := &d.Chains[ci]
		for si := range ch.Segment {
			sn := segNets{loc: Location{ci, si}}
			sn.path = ch.Segment[si].Path
			for _, s := range ch.Segment[si].Sides {
				sn.sides = append(sn.sides, c.Signals[s.Gate].Fanin[s.Pin])
			}
			segs = append(segs, sn)
		}
		for pos, ff := range ch.FFs {
			loc := Location{ci, pos + 1} // Q corrupt => corruption enters the next link
			qs = append(qs, qNet{ff, loc})
		}
	}

	// FF D-pin branch faults corrupt the captured value directly:
	// category 1 at that flip-flop's segment.
	ffLoc := make(map[netlist.SignalID]Location)
	for ci := range d.Chains {
		for pos, ff := range d.Chains[ci].FFs {
			ffLoc[ff] = Location{ci, pos}
		}
	}

	// Scan-mode input words, shared read-only by every worker.
	inW := make([]logic.Word, 0, len(d.Assignments))
	inID := make([]netlist.SignalID, 0, len(d.Assignments))
	for _, in := range c.Inputs {
		if v, ok := d.Assignments[in]; ok {
			inID = append(inID, in)
			inW = append(inW, logic.WordAll(v))
		}
	}

	batches := par.Chunks(len(faults), 63)
	workers := par.Workers(opts.Workers)
	if workers > len(batches) {
		workers = len(batches)
	}
	col := opts.Obs
	rec := col.Journal()
	prog := engine.Resolve(opts.Cache).ForObs(c, col).Program(col)
	type wstate struct {
		eval *sim.CompiledComb
		injs []sim.LaneInject
		// Per-lane verdict accumulators, reused across batches: locations
		// collect here and are copied into the output as one exact-size
		// arena per batch, instead of growing each fault's slice through
		// repeated small reallocations.
		locs [63][]Location
		cats [63]Category
	}
	states := par.NewPerWorker(workers, func() *wstate {
		return &wstate{injs: make([]sim.LaneInject, 0, 63), eval: sim.NewCompiledCombFrom(prog)}
	})
	body := func(worker, bi int) {
		st := states.Get(worker)
		base, n := batches[bi].Lo, batches[bi].Len()
		st.injs = st.injs[:0]
		for k := 0; k < n; k++ {
			st.injs = append(st.injs, sim.LaneInject{Inject: faults[base+k].Inject(), Lane: uint(k + 1)})
			st.locs[k] = st.locs[k][:0]
			st.cats[k] = Cat3
		}
		eval := st.eval
		eval.SetInjections(st.injs)
		eval.ClearX()
		vals := eval.Words()
		for i, in := range inID {
			vals[in] = inW[i]
		}
		eval.Eval()

		laneMask := (uint64(1)<<uint(n+1) - 1) &^ 1
		// net is the implicating net — the on-path or side-input signal
		// whose faulty value triggered the verdict; it flows into the
		// journal so provenance can name the evidence.
		addLoc := func(lanes uint64, loc Location, cat Category, net netlist.SignalID) {
			for k := 0; k < n; k++ {
				if lanes&(uint64(1)<<uint(k+1)) == 0 {
					continue
				}
				if cat > st.cats[k] {
					st.cats[k] = cat
				}
				st.locs[k] = append(st.locs[k], loc)
				if rec.Enabled() {
					ev := journal.Classify(journalKey(faults[base+k]), int(cat), loc.Chain, loc.Seg, int64(net))
					ev.Worker = int32(worker)
					rec.Emit(ev)
				}
			}
		}
		// On-path nets pinned definite -> category 1.
		for _, sn := range segs {
			for _, p := range sn.path {
				if lanes := vals[p].Known() & laneMask; lanes != 0 {
					addLoc(lanes, sn.loc, Cat1, p)
				}
			}
			for _, sd := range sn.sides {
				w := vals[sd]
				// Good value is definite (design invariant); a lane gone
				// X is category 2; a lane flipped shows up on-path.
				if lanes := ^w.Known() & laneMask; lanes != 0 {
					addLoc(lanes, sn.loc, Cat2, sd)
				}
			}
		}
		// Flip-flop Q stems pinned definite -> category 1 at the next link.
		for _, q := range qs {
			if lanes := vals[q.net].Known() & laneMask; lanes != 0 {
				addLoc(lanes, q.loc, Cat1, q.net)
			}
		}

		// Publish the batch verdicts: one shared arena sized to the exact
		// location count, sliced per fault (full slice expressions keep a
		// later append from clobbering a neighbour).
		total := 0
		for k := 0; k < n; k++ {
			total += len(st.locs[k])
		}
		if total == 0 {
			return
		}
		arena := make([]Location, 0, total)
		for k := 0; k < n; k++ {
			if len(st.locs[k]) == 0 {
				continue
			}
			lo := len(arena)
			arena = append(arena, st.locs[k]...)
			s := &out[base+k]
			s.Cat = st.cats[k]
			s.Locs = arena[lo:len(arena):len(arena)]
		}
	}
	col.Counter("screen.faults").Add(int64(len(faults)))
	col.Counter("screen.batches").Add(int64(len(batches)))
	err := par.DoPoolCtx(ctx, workers, len(batches), "screen", col, body)

	// FF D-pin branch faults (invisible to net-value comparison).
	for i := range out {
		f := out[i].Fault
		if !f.IsStem() && c.IsFF(f.Gate) {
			if loc, ok := ffLoc[f.Gate]; ok {
				if out[i].Cat < Cat1 {
					out[i].Cat = Cat1
				}
				out[i].Locs = append(out[i].Locs, loc)
				if rec.Enabled() {
					ev := journal.Classify(journalKey(f), int(Cat1), loc.Chain, loc.Seg, int64(f.Gate))
					ev.Worker = -1 // serial post-pass, flow thread
					rec.Emit(ev)
				}
			}
		}
	}

	for i := range out {
		locs := out[i].Locs
		if len(locs) < 2 {
			continue
		}
		slices.SortFunc(locs, func(a, b Location) int {
			if a.Chain != b.Chain {
				return a.Chain - b.Chain
			}
			return a.Seg - b.Seg
		})
		// Deduplicate.
		dst := locs[:0]
		for j, l := range locs {
			if j == 0 || l != locs[j-1] {
				dst = append(dst, l)
			}
		}
		out[i].Locs = dst
	}
	if col.Enabled() {
		var n1, n2, n3 int64
		for i := range out {
			switch out[i].Cat {
			case Cat1:
				n1++
			case Cat2:
				n2++
			default:
				n3++
			}
		}
		col.Counter("screen.easy").Add(n1)
		col.Counter("screen.hard").Add(n2)
		col.Counter("screen.unaffecting").Add(n3)
		col.Notef("screen: %d faults -> %d easy, %d hard, %d unaffecting", len(out), n1, n2, n3)
	}
	return out, err
}
