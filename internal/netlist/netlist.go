// Package netlist defines the gate-level sequential circuit model shared
// by every stage of the flow: simulation, fault modelling, ATPG, test
// point insertion and scan-chain construction.
//
// A circuit is a set of signals. Every signal is driven by exactly one of
// a primary input, a D flip-flop, or a combinational gate; the signal is
// simultaneously the driver's output net. This mirrors the ISCAS'89
// .bench view of a circuit and keeps fault sites, simulation values and
// structural traversals indexed by one dense integer space.
package netlist

import (
	"fmt"
	"sort"
	"sync/atomic"
	"unsafe"

	"repro/internal/logic"
)

// SignalID indexes a signal within its circuit.
type SignalID int32

// None is the invalid signal ID.
const None SignalID = -1

// Kind distinguishes the three driver classes of a signal.
type Kind uint8

// Signal driver kinds.
const (
	KindInput Kind = iota // primary input
	KindFF                // D flip-flop output (Q)
	KindGate              // combinational gate output
)

func (k Kind) String() string {
	switch k {
	case KindInput:
		return "INPUT"
	case KindFF:
		return "DFF"
	case KindGate:
		return "GATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Signal is one net and its driver.
type Signal struct {
	Name  string
	Kind  Kind
	Op    logic.Op   // valid when Kind == KindGate
	Fanin []SignalID // gate inputs; for KindFF, Fanin[0] is the D input
}

// Circuit is a gate-level sequential netlist. Construct with New and the
// Add* methods, then call Finalize before using any derived structure.
type Circuit struct {
	Name    string
	Signals []Signal
	Outputs []SignalID // primary outputs (references into Signals)

	// Derived by Finalize.
	Inputs  []SignalID   // all KindInput signals in declaration order
	FFs     []SignalID   // all KindFF signals in declaration order
	Fanouts [][]SignalID // consumers of each signal (gates and FFs)
	Level   []int        // combinational level: PIs/FFs at 0, gates at 1+max(fanin)
	Order   []SignalID   // gate signals in topological (level) order

	byName    map[string]SignalID
	finalized bool

	// Lazily memoized StructuralHash. Atomic because concurrent readers
	// of a finalized (immutable) circuit — e.g. engine-cache lookups from
	// parallel workers — may race to fill the memo; they all compute the
	// same value, and the valid flag is published only after the hash.
	structHash  atomic.Uint64
	structValid atomic.Bool
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]SignalID)}
}

func (c *Circuit) addSignal(s Signal) (SignalID, error) {
	if s.Name == "" {
		return None, fmt.Errorf("netlist: empty signal name")
	}
	if _, dup := c.byName[s.Name]; dup {
		return None, fmt.Errorf("netlist: duplicate signal %q", s.Name)
	}
	id := SignalID(len(c.Signals))
	c.Signals = append(c.Signals, s)
	c.byName[s.Name] = id
	c.finalized = false
	c.structValid.Store(false)
	return id, nil
}

// AddInput declares a primary input signal.
func (c *Circuit) AddInput(name string) (SignalID, error) {
	return c.addSignal(Signal{Name: name, Kind: KindInput})
}

// AddFF declares a flip-flop output signal. Its D input starts
// unconnected; set it later with SetFFInput (flip-flop feedback loops
// require two-phase construction).
func (c *Circuit) AddFF(name string) (SignalID, error) {
	return c.addSignal(Signal{Name: name, Kind: KindFF, Fanin: []SignalID{None}})
}

// AddGate declares a combinational gate and returns its output signal.
func (c *Circuit) AddGate(name string, op logic.Op, fanin ...SignalID) (SignalID, error) {
	minA, maxA := op.Arity()
	if len(fanin) < minA || (maxA >= 0 && len(fanin) > maxA) {
		return None, fmt.Errorf("netlist: gate %q: op %v cannot take %d inputs", name, op, len(fanin))
	}
	for _, f := range fanin {
		if !c.valid(f) {
			return None, fmt.Errorf("netlist: gate %q: invalid fanin %d", name, f)
		}
	}
	fi := make([]SignalID, len(fanin))
	copy(fi, fanin)
	return c.addSignal(Signal{Name: name, Kind: KindGate, Op: op, Fanin: fi})
}

// AddGateForward is AddGate for reconstruction paths where fanin IDs may
// reference signals that are appended later (e.g. rebuilding a mutated
// circuit in original ID order). Arity is checked now; fanin validity is
// deferred to Finalize.
func (c *Circuit) AddGateForward(name string, op logic.Op, fanin ...SignalID) (SignalID, error) {
	minA, maxA := op.Arity()
	if len(fanin) < minA || (maxA >= 0 && len(fanin) > maxA) {
		return None, fmt.Errorf("netlist: gate %q: op %v cannot take %d inputs", name, op, len(fanin))
	}
	fi := make([]SignalID, len(fanin))
	copy(fi, fanin)
	return c.addSignal(Signal{Name: name, Kind: KindGate, Op: op, Fanin: fi})
}

// SetFFInput connects the D input of flip-flop ff to signal d.
func (c *Circuit) SetFFInput(ff, d SignalID) error {
	if !c.valid(ff) || c.Signals[ff].Kind != KindFF {
		return fmt.Errorf("netlist: SetFFInput: %d is not a flip-flop", ff)
	}
	if !c.valid(d) {
		return fmt.Errorf("netlist: SetFFInput: invalid D signal %d", d)
	}
	c.Signals[ff].Fanin[0] = d
	c.finalized = false
	c.structValid.Store(false)
	return nil
}

// SetFanin rewires input pin pin of signal g (a gate, or a flip-flop's
// D pin 0) to read signal src.
func (c *Circuit) SetFanin(g SignalID, pin int, src SignalID) error {
	if !c.valid(g) || c.Signals[g].Kind == KindInput {
		return fmt.Errorf("netlist: SetFanin: %d has no fanin", g)
	}
	if pin < 0 || pin >= len(c.Signals[g].Fanin) {
		return fmt.Errorf("netlist: SetFanin: %s has no pin %d", c.Signals[g].Name, pin)
	}
	if !c.valid(src) {
		return fmt.Errorf("netlist: SetFanin: invalid source signal %d", src)
	}
	c.Signals[g].Fanin[pin] = src
	c.finalized = false
	c.structValid.Store(false)
	return nil
}

// MarkOutput declares signal s as a primary output.
func (c *Circuit) MarkOutput(s SignalID) error {
	if !c.valid(s) {
		return fmt.Errorf("netlist: MarkOutput: invalid signal %d", s)
	}
	c.Outputs = append(c.Outputs, s)
	c.finalized = false
	c.structValid.Store(false)
	return nil
}

func (c *Circuit) valid(s SignalID) bool {
	return s >= 0 && int(s) < len(c.Signals)
}

// Lookup returns the signal with the given name.
func (c *Circuit) Lookup(name string) (SignalID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// NameOf returns the name of signal s.
func (c *Circuit) NameOf(s SignalID) string { return c.Signals[s].Name }

// IsPI reports whether s is a primary input.
func (c *Circuit) IsPI(s SignalID) bool { return c.Signals[s].Kind == KindInput }

// IsFF reports whether s is a flip-flop output.
func (c *Circuit) IsFF(s SignalID) bool { return c.Signals[s].Kind == KindFF }

// IsGate reports whether s is a combinational gate output.
func (c *Circuit) IsGate(s SignalID) bool { return c.Signals[s].Kind == KindGate }

// NumGates returns the number of combinational gates.
func (c *Circuit) NumGates() int {
	n := 0
	for i := range c.Signals {
		if c.Signals[i].Kind == KindGate {
			n++
		}
	}
	return n
}

// Finalize validates the circuit and computes the derived structures
// (input/FF lists, fanouts, levels, topological order). It must be called
// after construction or mutation and before simulation or traversal.
//
// It runs in time linear in signals plus edges. Every fanout list is a
// window of one shared backing array, ordered by consumer ID (a consumer
// reading a signal on two pins appears twice) and capacity-capped, so
// appending to one list never writes into its neighbour.
func (c *Circuit) Finalize() error {
	n := len(c.Signals)
	c.Inputs = c.Inputs[:0]
	c.FFs = c.FFs[:0]
	c.Level = make([]int, n)

	edges := 0
	for id := SignalID(0); int(id) < n; id++ {
		s := &c.Signals[id]
		switch s.Kind {
		case KindInput:
			c.Inputs = append(c.Inputs, id)
		case KindFF:
			if len(s.Fanin) != 1 || s.Fanin[0] == None {
				return fmt.Errorf("netlist: flip-flop %q has no D input", s.Name)
			}
			c.FFs = append(c.FFs, id)
		case KindGate:
			minA, maxA := s.Op.Arity()
			if len(s.Fanin) < minA || (maxA >= 0 && len(s.Fanin) > maxA) {
				return fmt.Errorf("netlist: gate %q: bad arity %d for %v", s.Name, len(s.Fanin), s.Op)
			}
		}
		for _, f := range s.Fanin {
			if !c.valid(f) {
				return fmt.Errorf("netlist: signal %q: invalid fanin", s.Name)
			}
		}
		edges += len(s.Fanin)
	}
	for _, o := range c.Outputs {
		if !c.valid(o) {
			return fmt.Errorf("netlist: invalid primary output %d", o)
		}
	}

	// Fanouts: count each signal's consumers, lay the lists out back to
	// back, then fill them in consumer-ID order. start[s] ends up as the
	// end of s's window, which is where s+1's begins.
	start := make([]int, n+1)
	for i := range c.Signals {
		for _, f := range c.Signals[i].Fanin {
			start[f+1]++
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	all := make([]SignalID, edges)
	for id := SignalID(0); int(id) < n; id++ {
		for _, f := range c.Signals[id].Fanin {
			all[start[f]] = id
			start[f]++
		}
	}
	c.Fanouts = make([][]SignalID, n)
	lo := 0
	for i := range c.Fanouts {
		hi := start[i]
		c.Fanouts[i] = all[lo:hi:hi]
		lo = hi
	}

	// Levelize gates with Kahn's algorithm over combinational edges only
	// (FF boundaries cut the graph). A leftover gate means a
	// combinational cycle.
	indeg := make([]int, n)
	for id := SignalID(0); int(id) < n; id++ {
		s := &c.Signals[id]
		if s.Kind != KindGate {
			continue
		}
		for _, f := range s.Fanin {
			if c.Signals[f].Kind == KindGate {
				indeg[id]++
			}
		}
	}
	queue := make([]SignalID, 0, n)
	for id := SignalID(0); int(id) < n; id++ {
		if c.Signals[id].Kind == KindGate && indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	maxLevel := 0
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		lvl := 0
		for _, f := range c.Signals[id].Fanin {
			if l := c.Level[f]; l >= lvl {
				lvl = l
			}
		}
		c.Level[id] = lvl + 1
		if lvl+1 > maxLevel {
			maxLevel = lvl + 1
		}
		for _, fo := range c.Fanouts[id] {
			if c.Signals[fo].Kind == KindGate {
				indeg[fo]--
				if indeg[fo] == 0 {
					queue = append(queue, fo)
				}
			}
		}
	}
	if len(queue) != c.NumGates() {
		return fmt.Errorf("netlist: %s: combinational cycle detected", c.Name)
	}

	// Order gates by (level, ID) for reproducible traversals: a counting
	// sort over levels, filled in ID order.
	at := make([]int, maxLevel+2)
	for _, id := range queue {
		at[c.Level[id]+1]++
	}
	for l := 1; l < len(at); l++ {
		at[l] += at[l-1]
	}
	if cap(c.Order) < len(queue) {
		c.Order = make([]SignalID, len(queue))
	}
	c.Order = c.Order[:len(queue)]
	for id := SignalID(0); int(id) < n; id++ {
		if c.Signals[id].Kind == KindGate {
			l := c.Level[id]
			c.Order[at[l]] = id
			at[l]++
		}
	}
	c.finalized = true
	return nil
}

// Finalized reports whether Finalize has run since the last mutation.
func (c *Circuit) Finalized() bool { return c.finalized }

// StructuralHash returns an FNV-64a digest of the circuit structure:
// every signal's kind, operator and fanin IDs plus the primary-output
// list. Names do not participate — two circuits with identical IDs,
// drivers and outputs hash equal even if their nets are named
// differently, and every derived artifact (levelization, compiled
// programs, fault lists, ATPG models) depends only on that structure.
//
// The hash is computed lazily and cached; any mutation (adding a
// signal, connecting a flip-flop, marking an output) invalidates the
// cached value, so the engine-layer artifact cache keyed by this hash
// never serves artifacts of a stale structure.
func (c *Circuit) StructuralHash() uint64 {
	if c.structValid.Load() {
		return c.structHash.Load()
	}
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(len(c.Signals)))
	for i := range c.Signals {
		s := &c.Signals[i]
		mix(uint64(s.Kind)<<8 | uint64(s.Op))
		mix(uint64(len(s.Fanin)))
		for _, f := range s.Fanin {
			mix(uint64(uint32(f)) + 1)
		}
	}
	mix(uint64(len(c.Outputs)))
	for _, o := range c.Outputs {
		mix(uint64(uint32(o)) + 1)
	}
	c.structHash.Store(h)
	c.structValid.Store(true)
	return h
}

// MustFinalize is Finalize that panics on error; for tests and generators
// building known-good structures.
func (c *Circuit) MustFinalize() {
	if err := c.Finalize(); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the circuit. The copy is not finalized.
func (c *Circuit) Clone() *Circuit {
	nc := New(c.Name)
	nc.Signals = make([]Signal, len(c.Signals))
	for i, s := range c.Signals {
		ns := s
		ns.Fanin = append([]SignalID(nil), s.Fanin...)
		nc.Signals[i] = ns
		nc.byName[s.Name] = SignalID(i)
	}
	nc.Outputs = append([]SignalID(nil), c.Outputs...)
	return nc
}

// FanoutCone returns the set of signals reachable from s through
// combinational fanout, including s itself, stopping at FF boundaries
// (FF signals reached via their D pin are included but not expanded).
func (c *Circuit) FanoutCone(s SignalID) []SignalID {
	seen := make(map[SignalID]bool)
	var cone []SignalID
	stack := []SignalID{s}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		cone = append(cone, id)
		if id != s && c.Signals[id].Kind == KindFF {
			continue // cut at sequential boundary
		}
		stack = append(stack, c.Fanouts[id]...)
	}
	sort.Slice(cone, func(i, j int) bool { return cone[i] < cone[j] })
	return cone
}

// FaninCone returns the set of signals feeding s through combinational
// logic, including s itself, stopping at PIs and FF outputs.
func (c *Circuit) FaninCone(s SignalID) []SignalID {
	seen := make(map[SignalID]bool)
	var cone []SignalID
	stack := []SignalID{s}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		cone = append(cone, id)
		if id != s && c.Signals[id].Kind != KindGate {
			continue
		}
		if c.Signals[id].Kind == KindGate || id == s {
			stack = append(stack, c.Signals[id].Fanin...)
		}
	}
	sort.Slice(cone, func(i, j int) bool { return cone[i] < cone[j] })
	return cone
}

// SizeBytes estimates the circuit's resident memory footprint: the
// signal table (names and fanin lists), the derived structures
// Finalize builds, and the name index. It is an accounting estimate
// for byte-budgeted caches (the engine artifact cache charges every
// entry's retained structures against its budget), not an exact
// allocator measurement.
func (c *Circuit) SizeBytes() int64 {
	const (
		sliceHeader = 24 // slice header retained per nested slice
		mapEntry    = 48 // rough per-entry map overhead (bucket share)
	)
	idBytes := int64(unsafe.Sizeof(SignalID(0)))
	n := int64(unsafe.Sizeof(*c))
	n += int64(cap(c.Signals)) * int64(unsafe.Sizeof(Signal{}))
	for i := range c.Signals {
		s := &c.Signals[i]
		n += int64(len(s.Name)) + int64(cap(s.Fanin))*idBytes
	}
	n += int64(cap(c.Outputs)+cap(c.Inputs)+cap(c.FFs)+cap(c.Order)) * idBytes
	n += int64(cap(c.Level)) * int64(unsafe.Sizeof(int(0)))
	n += int64(cap(c.Fanouts)) * sliceHeader
	for _, f := range c.Fanouts {
		n += int64(cap(f)) * idBytes
	}
	for name := range c.byName {
		n += int64(len(name)) + mapEntry
	}
	return n
}

// Stats summarizes circuit size for reports.
type Stats struct {
	Inputs, Outputs, FFs, Gates int
	MaxLevel                    int
}

// Stat computes summary statistics; the circuit must be finalized.
func (c *Circuit) Stat() Stats {
	st := Stats{
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		FFs:     len(c.FFs),
		Gates:   c.NumGates(),
	}
	for _, l := range c.Level {
		if l > st.MaxLevel {
			st.MaxLevel = l
		}
	}
	return st
}
