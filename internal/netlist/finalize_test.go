package netlist

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/logic"
)

// randomCircuit builds a seeded acyclic circuit whose gate IDs are not
// in topological order: gates are declared with AddGateForward in a
// shuffled order, each reading primary inputs, flip-flops and gates
// earlier in a hidden topological order, sometimes on two pins at once.
func randomCircuit(t *testing.T, seed int64) *Circuit {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nPI, nFF, nGate := 1+r.Intn(5), r.Intn(6), 1+r.Intn(40)
	c := New(fmt.Sprintf("rand%d", seed))
	var sources []SignalID
	for i := 0; i < nPI; i++ {
		id, err := c.AddInput(fmt.Sprintf("i%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, id)
	}
	var ffs []SignalID
	for i := 0; i < nFF; i++ {
		id, err := c.AddFF(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ffs = append(ffs, id)
		sources = append(sources, id)
	}
	base := SignalID(len(c.Signals))
	topo := r.Perm(nGate) // topo[k] is the ID offset of the k-th gate in topological order
	fanin := make([][]SignalID, nGate)
	for k, off := range topo {
		avail := append([]SignalID(nil), sources...)
		for _, prev := range topo[:k] {
			avail = append(avail, base+SignalID(prev))
		}
		ar := 1 + r.Intn(3)
		for p := 0; p < ar; p++ {
			fanin[off] = append(fanin[off], avail[r.Intn(len(avail))])
		}
		if ar > 1 && r.Intn(4) == 0 {
			fanin[off][1] = fanin[off][0] // one consumer on two pins
		}
	}
	for off := 0; off < nGate; off++ {
		op := logic.OpAnd
		if len(fanin[off]) == 1 {
			op = logic.OpNot
		}
		if _, err := c.AddGateForward(fmt.Sprintf("g%d", off), op, fanin[off]...); err != nil {
			t.Fatal(err)
		}
	}
	all := SignalID(len(c.Signals))
	for _, ff := range ffs {
		if err := c.SetFFInput(ff, SignalID(r.Intn(int(all)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.MarkOutput(all - 1); err != nil {
		t.Fatal(err)
	}
	return c
}

// referenceDerived is the straightforward derivation Finalize must
// match: per-signal appended fanouts, levels from Kahn's algorithm and
// a stable sort of the gates by (level, ID).
func referenceDerived(c *Circuit) (fanouts [][]SignalID, level []int, order []SignalID) {
	n := len(c.Signals)
	fanouts = make([][]SignalID, n)
	level = make([]int, n)
	indeg := make([]int, n)
	for id := SignalID(0); int(id) < n; id++ {
		s := &c.Signals[id]
		for _, f := range s.Fanin {
			fanouts[f] = append(fanouts[f], id)
			if s.Kind == KindGate && c.Signals[f].Kind == KindGate {
				indeg[id]++
			}
		}
	}
	var queue []SignalID
	for id := SignalID(0); int(id) < n; id++ {
		if c.Signals[id].Kind == KindGate && indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		lvl := 0
		for _, f := range c.Signals[id].Fanin {
			if level[f] >= lvl {
				lvl = level[f]
			}
		}
		level[id] = lvl + 1
		order = append(order, id)
		for _, fo := range fanouts[id] {
			if c.Signals[fo].Kind == KindGate {
				if indeg[fo]--; indeg[fo] == 0 {
					queue = append(queue, fo)
				}
			}
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if level[a] != level[b] {
			return level[a] < level[b]
		}
		return a < b
	})
	return fanouts, level, order
}

// TestFinalizeMatchesReference pins the linear-time Finalize to the
// reference derivation on seeded random circuits, and checks that the
// shared fanout backing array cannot leak one list's append into the
// next list.
func TestFinalizeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		c := randomCircuit(t, seed)
		if err := c.Finalize(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fo, lvl, order := referenceDerived(c)
		for i := range fo {
			if len(fo[i]) == 0 && len(c.Fanouts[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(c.Fanouts[i], fo[i]) {
				t.Fatalf("seed %d: Fanouts[%d] = %v, want %v", seed, i, c.Fanouts[i], fo[i])
			}
		}
		if !reflect.DeepEqual(c.Level, lvl) {
			t.Fatalf("seed %d: Level = %v, want %v", seed, c.Level, lvl)
		}
		if !reflect.DeepEqual(c.Order, order) {
			t.Fatalf("seed %d: Order = %v, want %v", seed, c.Order, order)
		}
		for i := 0; i+1 < len(c.Fanouts); i++ {
			next := append([]SignalID(nil), c.Fanouts[i+1]...)
			_ = append(c.Fanouts[i], -7)
			if !reflect.DeepEqual(append([]SignalID(nil), c.Fanouts[i+1]...), next) {
				t.Fatalf("seed %d: appending to Fanouts[%d] changed Fanouts[%d]", seed, i, i+1)
			}
		}
	}
}

func TestSetFaninValidates(t *testing.T) {
	c := buildToy(t)
	a, _ := c.Lookup("a")
	g1, _ := c.Lookup("g1")
	ff1, _ := c.Lookup("ff1")
	for _, bad := range []struct {
		g   SignalID
		pin int
		src SignalID
	}{
		{a, 0, g1},    // inputs have no fanin
		{g1, 2, a},    // NAND g1 has pins 0 and 1
		{g1, -1, a},   // negative pin
		{g1, 0, 99},   // invalid source
		{99, 0, a},    // invalid gate
		{ff1, 1, g1},  // a flip-flop has only its D pin
		{None, 0, g1}, // None is not a signal
		{g1, 0, None}, // nor as a source
	} {
		if err := c.SetFanin(bad.g, bad.pin, bad.src); err == nil {
			t.Errorf("SetFanin(%d, %d, %d) accepted", bad.g, bad.pin, bad.src)
		}
	}
	if !c.Finalized() {
		t.Error("a rejected SetFanin cleared finalized")
	}
	if err := c.SetFanin(ff1, 0, a); err != nil {
		t.Fatal(err)
	}
	if c.Finalized() {
		t.Error("SetFanin left the circuit finalized")
	}
}

// TestSetFaninInvalidatesHash checks a rewire never serves the memoized
// structural hash of the circuit before it.
func TestSetFaninInvalidatesHash(t *testing.T) {
	c := buildToy(t)
	before := c.StructuralHash()
	g2, _ := c.Lookup("g2")
	a, _ := c.Lookup("a")
	if err := c.SetFanin(g2, 1, a); err != nil {
		t.Fatal(err)
	}
	after := c.StructuralHash()
	if after == before {
		t.Fatal("SetFanin served the stale structural hash")
	}
	if fresh := c.Clone().StructuralHash(); after != fresh {
		t.Fatalf("hash after SetFanin = %x, a fresh clone hashes %x", after, fresh)
	}
}
