package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/journal"
)

// mustParse parses a traceparent or fails the test.
func mustParse(t *testing.T, h string) Context {
	t.Helper()
	c, err := Parse(h)
	if err != nil {
		t.Fatalf("Parse(%q): %v", h, err)
	}
	return c
}

func TestParseRoundTrip(t *testing.T) {
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	c := mustParse(t, h)
	if got := c.Traceparent(); got != h {
		t.Errorf("round trip = %q, want %q", got, h)
	}
	if c.Trace.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace ID = %s", c.Trace)
	}
	if c.Span.String() != "00f067aa0ba902b7" {
		t.Errorf("span ID = %s", c.Span)
	}
	if c.Flags != FlagSampled {
		t.Errorf("flags = %#x", c.Flags)
	}
	if !c.Valid() {
		t.Error("parsed context not Valid")
	}
}

func TestParseLenientAndStrict(t *testing.T) {
	// A future version with a trailing vendor field parses (forward
	// compatibility); whitespace is trimmed.
	if _, err := Parse("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); err != nil {
		t.Errorf("future version rejected: %v", err)
	}
	if _, err := Parse(" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01 "); err != nil {
		t.Errorf("padded header rejected: %v", err)
	}
	bad := []string{
		"",
		"not-a-header",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // version ff
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 with extra field
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // zero span
		"00-4bf92f3577b34da6-00f067aa0ba902b7-01",                       // short trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa-01",               // short span
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",       // bad hex
	}
	for _, h := range bad {
		if _, err := Parse(h); err == nil {
			t.Errorf("Parse(%q) accepted, want error", h)
		}
	}
}

func TestNewContext(t *testing.T) {
	a, b := NewContext(), NewContext()
	if !a.Valid() || !b.Valid() {
		t.Fatal("fresh contexts must be valid")
	}
	if a.Trace == b.Trace || a.Span == b.Span {
		t.Error("fresh contexts collide")
	}
	if a.Flags&FlagSampled == 0 {
		t.Error("fresh context not sampled")
	}
	back := mustParse(t, a.Traceparent())
	if back != a {
		t.Errorf("traceparent round trip: got %+v want %+v", back, a)
	}
}

// TestContextChild: a valid parent is joined (same trace, fresh span,
// flags kept plus sampled); an invalid one roots a fresh trace.
func TestContextChild(t *testing.T) {
	parent := mustParse(t, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	cases := []struct {
		name      string
		in        Context
		joins     bool
		wantFlags byte
	}{
		{"sampled parent", parent, true, 0x01},
		{"unsampled parent", Context{Trace: parent.Trace, Span: parent.Span}, true, 0x01},
		{"parent with other flags", Context{Trace: parent.Trace, Span: parent.Span, Flags: 0x02}, true, 0x03},
		{"zero context", Context{}, false, FlagSampled},
		{"trace without span", Context{Trace: parent.Trace, Flags: 0x01}, false, FlagSampled},
	}
	for _, c := range cases {
		got := c.in.Child()
		if !got.Valid() || got.Flags != c.wantFlags {
			t.Errorf("%s: Child() = %+v, want a valid context with flags %02x", c.name, got, c.wantFlags)
		}
		if got.Span == c.in.Span {
			t.Errorf("%s: Child() kept the parent's span ID", c.name)
		}
		if joined := got.Trace == c.in.Trace; joined != c.joins {
			t.Errorf("%s: Child() joined the parent's trace = %v, want %v", c.name, joined, c.joins)
		}
	}
}

// unitTimeline is two runs sharing one journal (a CLI over two
// circuits): the first with its axis announced and a closed phase
// holding one pool item and one ATPG attempt, the second canceled
// inside an open phase.
func unitTimeline() []journal.Event {
	return []journal.Event{
		{Kind: journal.KindUnitBegin, TNS: 1_000},
		{Kind: journal.KindAxis, D: 63, TNS: 1_500}, // instant: no span
		{Kind: journal.KindPhaseBegin, Arg: "faultsim.seq", TNS: 2_000},
		{Kind: journal.KindBatch, Arg: "faultsim", Worker: 1, A: 0, B: 4, TNS: 3_000, DurNS: 50_000},
		{Kind: journal.KindATPG, Arg: "atpg.comb", A: 7, B: 0, C: 3, TNS: 60_000, DurNS: 20_000},
		{Kind: journal.KindClassify, A: 7, B: 1, TNS: 70_000}, // instant: no span
		{Kind: journal.KindPhaseEnd, Arg: "faultsim.seq", TNS: 2_000, DurNS: 98_000},
		{Kind: journal.KindUnitEnd, A: 40, B: 1, D: 63, TNS: 1_000, DurNS: 100_000},
		{Kind: journal.KindUnitBegin, TNS: 110_000},
		{Kind: journal.KindPhaseBegin, Arg: "faultsim.seq", TNS: 111_000},
	}
}

// TestFromRecorder: the recorder's events, origin and dropped count and
// the caller's attributes land in one trace, resource attributes in
// their fixed order.
func TestFromRecorder(t *testing.T) {
	ctx := mustParse(t, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rec := journal.New(4)
	for _, e := range unitTimeline()[:6] {
		rec.Emit(e)
	}
	tr := FromRecorder(rec, ctx, SpanID{7: 1}, "cli", -1, 0xabc, Attr{"run_id", "r1"})
	want := []Attr{
		{"service.name", serviceName}, {"run_id", "r1"},
		{"structural_hash", "0000000000000abc"}, {"journal.dropped_events", "2"},
	}
	if !reflect.DeepEqual(tr.Resource, want) {
		t.Errorf("resource = %v, want %v", tr.Resource, want)
	}
	if tr.OriginNS != rec.Origin().UnixNano() || tr.Ctx != ctx || tr.Parent != (SpanID{7: 1}) {
		t.Errorf("trace identity = %+v", tr)
	}
	if len(tr.Spans) != 4 || tr.Spans[0].Name != "cli" { // root, unit, phase, pool
		t.Errorf("spans = %+v", tr.Spans)
	}

	bare := FromRecorder(nil, ctx, SpanID{}, "cli", -1, 0)
	if len(bare.Spans) != 1 || bare.OriginNS == 0 ||
		bare.Resource[len(bare.Resource)-1] != (Attr{"journal.dropped_events", "0"}) {
		t.Errorf("nil-recorder trace = %+v", bare)
	}
}

func TestAssembleTree(t *testing.T) {
	ctx := mustParse(t, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	var parent SpanID
	parent[7] = 0xaa
	spans := Assemble(ctx, parent, "job j000001", unitTimeline(), 150_000)

	// root + unit + phase + pool + atpg + unit + open phase = 7
	if len(spans) != 7 {
		t.Fatalf("got %d spans, want 7: %+v", len(spans), spans)
	}
	root := spans[0]
	if root.Kind != SpanRoot || root.ID != ctx.Span || root.Parent != parent {
		t.Errorf("root span = %+v", root)
	}
	if root.StartNS != 0 || root.EndNS != 150_000 {
		t.Errorf("root interval = [%d,%d]", root.StartNS, root.EndNS)
	}
	find := func(name, kind string, unclosed bool) Span {
		t.Helper()
		for _, sp := range spans {
			if sp.Name == name && sp.Kind == kind && sp.Unclosed == unclosed {
				return sp
			}
		}
		t.Fatalf("no span %s/%s (unclosed=%v) in %+v", name, kind, unclosed, spans)
		return Span{}
	}
	u0 := find("unit", SpanUnit, false)
	if u0.Parent != root.ID {
		t.Errorf("first unit parents to %s, want root %s", u0.Parent, root.ID)
	}
	if u0.StartNS != 1_000 || u0.EndNS != 101_000 {
		t.Errorf("first unit = %+v", u0)
	}
	if want := []Attr{{"faults", "63"}, {"hits", "40"}}; !reflect.DeepEqual(u0.Attrs, want) {
		t.Errorf("first unit attrs = %v, want %v", u0.Attrs, want)
	}
	ph := find("faultsim.seq", SpanPhase, false)
	if ph.Parent != u0.ID {
		t.Errorf("closed phase parents to %s, want the first unit %s", ph.Parent, u0.ID)
	}
	pool := find("faultsim", SpanPool, false)
	if pool.Parent != ph.ID {
		t.Errorf("pool item parents to %s, want its phase %s", pool.Parent, ph.ID)
	}
	if want := []Attr{{"worker", "1"}, {"index", "0"}, {"total", "4"}}; !reflect.DeepEqual(pool.Attrs, want) {
		t.Errorf("pool item attrs = %v, want %v", pool.Attrs, want)
	}
	atpg := find("atpg.comb", SpanATPG, false)
	if atpg.Parent != ph.ID {
		t.Errorf("ATPG attempt parents to %s, want its phase %s", atpg.Parent, ph.ID)
	}
	if want := []Attr{{"fault", "7"}, {"status", "0"}, {"backtracks", "3"}}; !reflect.DeepEqual(atpg.Attrs, want) {
		t.Errorf("ATPG attempt attrs = %v, want %v", atpg.Attrs, want)
	}
	u1 := find("unit", SpanUnit, true)
	if !u1.Unclosed || u1.EndNS != 150_000 {
		t.Errorf("canceled unit = %+v (want unclosed, end at timeline end)", u1)
	}
	// All span IDs unique and nonzero.
	seen := map[SpanID]bool{}
	for _, sp := range spans {
		if sp.ID.IsZero() || seen[sp.ID] {
			t.Errorf("span %q: bad or duplicate ID %s", sp.Name, sp.ID)
		}
		seen[sp.ID] = true
	}
	// Deterministic: same inputs, same spans.
	again := Assemble(ctx, parent, "job j000001", unitTimeline(), 150_000)
	if !reflect.DeepEqual(spans, again) {
		t.Error("Assemble is not deterministic")
	}
}

func TestAssembleLostEvents(t *testing.T) {
	ctx := NewContext()
	// End events without begins (begins dropped at the buffer cap).
	events := []journal.Event{
		{Kind: journal.KindPhaseEnd, Arg: "screen", TNS: 1_000, DurNS: 10_000},
		{Kind: journal.KindUnitEnd, A: 30, B: 1, D: 252, TNS: 20_000, DurNS: 5_000},
	}
	spans := Assemble(ctx, SpanID{}, "run", events, 0)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, sp := range spans[1:] {
		if sp.Parent != spans[0].ID {
			t.Errorf("orphan %q parents to %s, want root", sp.Name, sp.Parent)
		}
		if sp.Unclosed {
			t.Errorf("synthesized span %q marked unclosed", sp.Name)
		}
	}
	if spans[0].EndNS != 25_000 {
		t.Errorf("root end = %d, want raised to cover latest event (25000)", spans[0].EndNS)
	}
}

// TestAssembleInterruptedUnit: a unit whose run ended with an error,
// a cancel or a panic (unit_end B = 0) is a closed span marked
// interrupted.
func TestAssembleInterruptedUnit(t *testing.T) {
	events := []journal.Event{
		{Kind: journal.KindUnitBegin, TNS: 1_000},
		{Kind: journal.KindUnitEnd, A: 3, B: 0, D: -1, TNS: 1_000, DurNS: 5_000},
	}
	spans := Assemble(NewContext(), SpanID{}, "run", events, 0)
	want := []Attr{{"faults", "-1"}, {"hits", "3"}, {"interrupted", "true"}}
	if len(spans) != 2 || spans[1].Unclosed || !reflect.DeepEqual(spans[1].Attrs, want) {
		t.Errorf("spans = %+v, want a closed unit with attrs %v", spans, want)
	}
}

func TestOTLPRoundTrip(t *testing.T) {
	ctx := mustParse(t, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	var parent SpanID
	parent[0] = 0x11
	spans := Assemble(ctx, parent, "fsctest", unitTimeline(), 150_000)
	tr := Trace{
		Ctx: ctx, Parent: parent,
		Resource: []Attr{{"run_id", "r-1"}, {"circuit", "s3384"}},
		Spans:    spans,
	}
	var buf bytes.Buffer
	if err := WriteOTLP(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"resourceSpans"`) {
		t.Fatal("payload missing resourceSpans")
	}
	got, err := ReadOTLP(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Ctx.Trace != ctx.Trace || got.Ctx.Span != ctx.Span {
		t.Errorf("context: got %+v, want %+v", got.Ctx, ctx)
	}
	if got.Parent != parent {
		t.Errorf("root parent: got %s, want %s", got.Parent, parent)
	}
	if !reflect.DeepEqual(got.Resource, tr.Resource) {
		t.Errorf("resource: got %+v, want %+v", got.Resource, tr.Resource)
	}
	if len(got.Spans) != len(spans) {
		t.Fatalf("got %d spans, want %d", len(got.Spans), len(spans))
	}
	for i, sp := range got.Spans {
		want := spans[i]
		// Pool/ATPG leaves have no Attrs slice after round trip only if
		// they had none; compare the identity and interval fields.
		if sp.Name != want.Name || sp.Kind != want.Kind || sp.ID != want.ID ||
			sp.Parent != want.Parent || sp.StartNS != want.StartNS ||
			sp.EndNS != want.EndNS || sp.Unclosed != want.Unclosed {
			t.Errorf("span %d: got %+v, want %+v", i, sp, want)
		}
	}
}

func TestReadOTLPErrors(t *testing.T) {
	for _, in := range []string{"", "{}", `{"resourceSpans":[]}`,
		`{"resourceSpans":[{"scopeSpans":[{"spans":[]}]}]}`} {
		if _, err := ReadOTLP(strings.NewReader(in)); err == nil {
			t.Errorf("ReadOTLP(%q) accepted, want error", in)
		}
	}
}

// parallelUnits builds a synthetic 3-unit trace shaped like a future
// cross-process sharded run: units overlap in time and the slowest
// one (unit 1) finishes last, so the critical path must descend into
// it and its dominant phase.
func parallelUnits() []Span {
	id := func(b byte) SpanID { return SpanID{7: b} }
	return []Span{
		{Name: "job j000042", Kind: SpanRoot, ID: id(1), StartNS: 0, EndNS: 1_000_000},
		{Name: "unit 0", Kind: SpanUnit, ID: id(2), Parent: id(1), StartNS: 10_000, EndNS: 400_000},
		{Name: "unit 1", Kind: SpanUnit, ID: id(3), Parent: id(1), StartNS: 10_000, EndNS: 990_000},
		{Name: "unit 2", Kind: SpanUnit, ID: id(4), Parent: id(1), StartNS: 10_000, EndNS: 600_000},
		{Name: "faultsim.seq", Kind: SpanPhase, ID: id(5), Parent: id(3), StartNS: 20_000, EndNS: 970_000},
		{Name: "faultsim", Kind: SpanPool, ID: id(6), Parent: id(5), StartNS: 30_000, EndNS: 500_000},
		{Name: "faultsim", Kind: SpanPool, ID: id(7), Parent: id(5), StartNS: 400_000, EndNS: 960_000},
		{Name: "faultsim.seq", Kind: SpanPhase, ID: id(8), Parent: id(2), StartNS: 20_000, EndNS: 390_000},
	}
}

func TestBuildTreeAndCriticalPath(t *testing.T) {
	root := BuildTree(parallelUnits())
	if root == nil || root.Span.Name != "job j000042" {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 3 {
		t.Fatalf("root has %d children, want 3 units", len(root.Children))
	}
	path := CriticalPath(root)
	var names []string
	for _, n := range path {
		names = append(names, n.Span.Name)
	}
	want := []string{"job j000042", "unit 1", "faultsim.seq", "faultsim"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("critical path = %v, want %v", names, want)
	}
	// The chain must end at the last pool item of the slowest unit.
	if last := path[len(path)-1].Span; last.EndNS != 960_000 {
		t.Errorf("critical path tail ends at %d, want 960000", last.EndNS)
	}
}

func TestSelfNS(t *testing.T) {
	root := BuildTree(parallelUnits())
	// unit 1's phase: duration 950_000, children cover [30k,500k] and
	// [400k,960k] -> union [30k,960k] = 930_000; self = 20_000.
	var phase *Node
	for _, u := range root.Children {
		if u.Span.Name == "unit 1" {
			phase = u.Children[0]
		}
	}
	if phase == nil {
		t.Fatal("unit 1 phase not found")
	}
	if got := SelfNS(phase); got != 20_000 {
		t.Errorf("phase self time = %d, want 20000", got)
	}
	// A leaf's self time is its full duration.
	leaf := phase.Children[0]
	if got := SelfNS(leaf); got != leaf.Span.DurNS() {
		t.Errorf("leaf self = %d, want %d", got, leaf.Span.DurNS())
	}
	// Root: children (units) cover [10k,990k] = 980_000 of 1_000_000.
	if got := SelfNS(root); got != 20_000 {
		t.Errorf("root self = %d, want 20000", got)
	}
}

func TestDeriveSpanStability(t *testing.T) {
	ctx := mustParse(t, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	a := deriveSpan(ctx.Trace, ctx.Span, 1)
	b := deriveSpan(ctx.Trace, ctx.Span, 1)
	c := deriveSpan(ctx.Trace, ctx.Span, 2)
	if a != b {
		t.Error("deriveSpan not deterministic")
	}
	if a == c {
		t.Error("deriveSpan collides across sequence numbers")
	}
	if a.IsZero() || c.IsZero() {
		t.Error("derived span ID is zero")
	}
}
