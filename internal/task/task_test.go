package task

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/journal"
	"repro/internal/logic"
	"repro/internal/obs"
)

// scrubDurations blanks the wall-time brackets in flow reports, the
// only non-deterministic bytes any kind's output contains.
var scrubDurations = regexp.MustCompile(`\[[^\[\]]*\]`)

func scrub(s string) string { return scrubDurations.ReplaceAllString(s, "[x]") }

// TestRandomSequenceGolden pins the shared stimulus generator: the
// faultsim CLI's -random, daemon faultsim jobs and every spec's
// Stimulus must keep producing exactly this sequence or ledgered
// coverage numbers silently shift.
func TestRandomSequenceGolden(t *testing.T) {
	c := bench.MustS27()
	seq := RandomSequence(c, 1, 4)
	want := [][]int{
		{0, 0, 0, 0},
		{1, 1, 1, 1},
		{0, 1, 1, 0},
		{0, 0, 0, 0},
	}
	if len(seq) != len(want) {
		t.Fatalf("len = %d, want %d", len(seq), len(want))
	}
	for tt, pi := range seq {
		if len(pi) != len(want[tt]) {
			t.Fatalf("cycle %d: %d inputs, want %d", tt, len(pi), len(want[tt]))
		}
		for i, v := range pi {
			if int(v) != want[tt][i] {
				t.Errorf("cycle %d input %d = %d, want %d", tt, i, v, want[tt][i])
			}
		}
	}
}

// TestRunGoldens pins every kind's full report for the embedded s27
// benchmark. These are the bytes the CLIs print and the daemon stores;
// a diff here is a user-visible output change.
func TestRunGoldens(t *testing.T) {
	want := map[string]string{
		KindFlow: "circuit s27: 18 gates, 3 FFs, 1 chains, 52 faults\n" +
			"  screening: easy=16 (30.8%)  hard=5 (9.6%)  affecting=21 (40.4%)  [x]\n" +
			"  step 1: alternating sequence confirmed 16/16 easy faults (0 escapes)\n" +
			"  step 2: 2 vectors; det=5 undetectable=0 undetected=0  [x]\n" +
			"  step 3: 0+0 C/O circuits; det=0 undetectable=0 undetected=0  [x]\n" +
			"  undetected: 0 = 0.0000% of faults = 0.0000% of affecting\n",
		KindScreen: "circuit s27: 52 faults screened\n" +
			"category 1 (easy): 16\ncategory 2 (hard): 5\nunaffecting: 31\n",
		KindATPG: "circuit s27: comb ATPG over 52 faults\n" +
			"found 23  redundant 29  aborted 0\n",
		KindFaultSim: "circuit s27: 10 gates, 3 FFs; 32 faults; 100 cycles\n" +
			"detected 31 / 32 faults (96.88% coverage)\n",
		KindDiagnose: "circuit s27: dictionary over 21 chain-affecting faults\n" +
			"diagnosable: 21 (100.0%)  exact: 9  ambiguous: 12  silent: 0\n" +
			"mean candidates per diagnosis: 1.86\n",
	}
	wantExtras := map[string]map[string]float64{
		KindFlow:     {"faults": 52, "undetected": 0, "coverage": 100},
		KindScreen:   {"faults": 52, "easy": 16, "hard": 5},
		KindATPG:     {"faults": 52, "found": 23, "redundant": 29, "aborted": 0},
		KindFaultSim: {"faults": 32, "detected": 31, "coverage": 96.875},
		KindDiagnose: {"candidates": 21, "diagnosable": 21, "exact": 9, "silent": 0},
	}
	for _, kind := range Kinds() {
		sp := Spec{Kind: kind, Circuit: "s27", Cycles: 100}
		res, err := Run(context.Background(), sp, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := scrub(res.Output); got != want[kind] {
			t.Errorf("%s output:\n%s\nwant:\n%s", kind, got, want[kind])
		}
		if !reflect.DeepEqual(res.Extras, wantExtras[kind]) {
			t.Errorf("%s extras = %v, want %v", kind, res.Extras, wantExtras[kind])
		}
	}
}

// TestScreenMatchesDirectCalls anchors the pipeline to the internals it
// wraps: a screen-kind Run must reproduce exactly what direct
// screening plus FormatScreen produce.
func TestScreenMatchesDirectCalls(t *testing.T) {
	sp := Spec{Kind: KindScreen, Circuit: "s27"}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sp.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	faults := engine.Resolve(nil).For(d.C).CollapsedFaults()
	screened, err := core.ScreenCtx(context.Background(), d, faults, core.ScreenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := FormatScreen(d.C.Name, screened); res.Output != want {
		t.Errorf("task output:\n%s\ndirect calls:\n%s", res.Output, want)
	}
}

// TestDiagnoseUsesRunCache: a diagnose run draws its dictionary's
// compiled program from the run's cache, so the process-wide cache sees
// no probe — a daemon's -cache-budget and hit/miss counters cover the
// whole job.
func TestDiagnoseUsesRunCache(t *testing.T) {
	sp := Spec{Kind: KindDiagnose, Circuit: "s3384", Scale: 0.05}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	before := engine.Default().Stats()
	cache := engine.New()
	if _, err := Run(context.Background(), sp, cache, nil); err != nil {
		t.Fatal(err)
	}
	if after := engine.Default().Stats(); after != before {
		t.Errorf("engine.Default() stats moved: %+v -> %+v", before, after)
	}
	if st := cache.Stats(); st.Entries == 0 {
		t.Errorf("run cache stayed empty: %+v", st)
	}
}

// TestSpecJSONRoundTrip sends every kind's spec through its wire form
// and requires the byte-identical result: a daemon that
// received the JSON must run exactly what the CLI ran.
func TestSpecJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	specs := []Spec{
		{Kind: KindFlow, Circuit: "s27"},
		{Kind: KindScreen, Circuit: "s27"},
		{Kind: KindATPG, Circuit: "s27"},
		{Kind: KindFaultSim, Circuit: "s27", Cycles: 100, Uncollapsed: true},
		{Kind: KindDiagnose, Circuit: "s27"},
		{Kind: KindFlow, Circuit: "s3384", Scale: 0.05},
		{Kind: KindScreen, Circuit: "s3384", Scale: 0.05},
		{Kind: KindATPG, Circuit: "s3384", Scale: 0.05},
		{Kind: KindFaultSim, Circuit: "s3384", Scale: 0.05, Cycles: 100},
		{Kind: KindDiagnose, Circuit: "s1423", Scale: 0.05},
	}
	cache := engine.New()
	for _, sp := range specs {
		direct, err := Run(context.Background(), sp, cache, nil)
		if err != nil {
			t.Fatalf("%s/%s: direct: %v", sp.Kind, sp.Circuit, err)
		}
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("%s/%s: marshal: %v", sp.Kind, sp.Circuit, err)
		}
		var wire Spec
		if err := json.Unmarshal(data, &wire); err != nil {
			t.Fatalf("%s/%s: unmarshal: %v", sp.Kind, sp.Circuit, err)
		}
		res, err := Run(context.Background(), wire, cache, nil)
		if err != nil {
			t.Fatalf("%s/%s: wire: %v", sp.Kind, sp.Circuit, err)
		}
		if scrub(res.Output) != scrub(direct.Output) {
			t.Errorf("%s/%s: wire output:\n%s\ndirect output:\n%s",
				sp.Kind, sp.Circuit, scrub(res.Output), scrub(direct.Output))
		}
		if !reflect.DeepEqual(res.Extras, direct.Extras) {
			t.Errorf("%s/%s: wire extras %v != direct %v", sp.Kind, sp.Circuit, res.Extras, direct.Extras)
		}
		if res.Hash != direct.Hash || res.Circuit != direct.Circuit {
			t.Errorf("%s/%s: wire identity %s/%d != direct %s/%d",
				sp.Kind, sp.Circuit, res.Circuit, res.Hash, direct.Circuit, direct.Hash)
		}
	}
}

// TestNormalizeErrors spot-checks spec validation.
func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		sp   Spec
		frag string
	}{
		{Spec{}, "missing kind"},
		{Spec{Kind: "bogus", Circuit: "s27"}, "unknown kind"},
		{Spec{Kind: KindFlow}, "missing circuit"},
		{Spec{Kind: KindFlow, Circuit: "no-such-profile"}, "no-such-profile"},
		{Spec{Kind: KindFlow, Circuit: "s27", Scale: 1.5}, "out of range"},
		{Spec{Kind: KindFlow, Circuit: "s27", Version: 99}, "version"},
	}
	for _, c := range cases {
		sp := c.sp
		if err := sp.Normalize(); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Normalize(%+v) = %v, want %q", c.sp, err, c.frag)
		}
	}
}

// TestNormalizeWorkersLimit: Workers up to the DefaultsFor limit is
// accepted; one more is a *LimitError naming the field and the limit.
func TestNormalizeWorkersLimit(t *testing.T) {
	for _, kind := range Kinds() {
		max := DefaultsFor(kind).MaxWorkers
		if max <= 0 {
			t.Fatalf("%s: MaxWorkers = %d, want a positive limit", kind, max)
		}
		ok := Spec{Kind: kind, Circuit: "s27", Workers: max}
		if err := ok.Normalize(); err != nil {
			t.Errorf("%s: workers %d rejected: %v", kind, max, err)
		}
		over := Spec{Kind: kind, Circuit: "s27", Workers: max + 1}
		var le *LimitError
		if err := over.Normalize(); !errors.As(err, &le) {
			t.Errorf("%s: workers %d: err = %v, want *LimitError", kind, max+1, err)
		} else if le.Field != "workers" || le.Value != max+1 || le.Max != max {
			t.Errorf("%s: LimitError = %+v", kind, le)
		}
	}
}

// TestNormalizeCyclesLimit: Cycles up to the DefaultsFor limit is
// accepted; one more is a *LimitError naming the field and the limit.
func TestNormalizeCyclesLimit(t *testing.T) {
	for _, kind := range Kinds() {
		max := DefaultsFor(kind).MaxCycles
		if max <= 0 {
			t.Fatalf("%s: MaxCycles = %d, want a positive limit", kind, max)
		}
		ok := Spec{Kind: kind, Circuit: "s27", Cycles: max}
		if err := ok.Normalize(); err != nil {
			t.Errorf("%s: cycles %d rejected: %v", kind, max, err)
		}
		for _, n := range []int{max + 1, 2000000000} {
			over := Spec{Kind: kind, Circuit: "s27", Cycles: n}
			var le *LimitError
			if err := over.Normalize(); !errors.As(err, &le) {
				t.Errorf("%s: cycles %d: err = %v, want *LimitError", kind, n, err)
			} else if le.Field != "cycles" || le.Value != n || le.Max != max {
				t.Errorf("%s: LimitError = %+v", kind, le)
			}
		}
	}
}

// TestNormalizeBenchLimit: inline .bench text up to the DefaultsFor
// limit is accepted; one byte more is a *LimitError naming the field.
func TestNormalizeBenchLimit(t *testing.T) {
	s27 := "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"
	for _, kind := range Kinds() {
		max := DefaultsFor(kind).MaxBenchBytes
		if max <= 0 {
			t.Fatalf("%s: MaxBenchBytes = %d, want a positive limit", kind, max)
		}
		pad := func(n int) string { return s27 + strings.Repeat("#", n-len(s27)) }
		ok := Spec{Kind: kind, Bench: pad(max)}
		if err := ok.Normalize(); err != nil {
			t.Errorf("%s: bench of %d bytes rejected: %v", kind, max, err)
		}
		over := Spec{Kind: kind, Bench: pad(max + 1)}
		var le *LimitError
		if err := over.Normalize(); !errors.As(err, &le) {
			t.Errorf("%s: bench of %d bytes: err = %v, want *LimitError", kind, max+1, err)
		} else if le.Field != "bench" || le.Value != max+1 || le.Max != max {
			t.Errorf("%s: LimitError = %+v", kind, le)
		}
	}
}

// TestTraceParentNormalize: a spec's traceparent is validated and
// canonicalized (lowercase hex, version 00) by Normalize, parsed back
// by TraceContext, and rejected when malformed.
func TestTraceParentNormalize(t *testing.T) {
	sp := Spec{Kind: KindScreen, Circuit: "s27",
		TraceParent: "00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01"}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if sp.TraceParent != want {
		t.Errorf("canonicalized traceparent = %q, want %q", sp.TraceParent, want)
	}
	tc, ok := sp.TraceContext()
	if !ok || tc.Traceparent() != want {
		t.Errorf("TraceContext = %+v, %v", tc, ok)
	}
	bad := Spec{Kind: KindScreen, Circuit: "s27", TraceParent: "not-a-traceparent"}
	if err := bad.Normalize(); err == nil || !strings.Contains(err.Error(), "traceparent") {
		t.Errorf("bad traceparent Normalize = %v, want traceparent error", err)
	}
	if _, ok := (Spec{}).TraceContext(); ok {
		t.Error("empty spec reports a trace context")
	}
}

// TestExecuteEmitsUnitEvents: with a journal-recording collector, a
// run is bracketed by exactly one unit_begin/unit_end pair with one
// axis event between them. The end event carries what the run
// resolved — the fault-axis length, the per-kind hits and the clean
// flag — so the run tracker and the tracing layer need nothing else.
func TestExecuteEmitsUnitEvents(t *testing.T) {
	col := obs.New()
	rec := journal.New(1024)
	col.SetJournal(rec)
	res, err := Run(context.Background(), Spec{Kind: KindScreen, Circuit: "s27"}, nil, col)
	if err != nil {
		t.Fatal(err)
	}
	var begins, axes, ends []journal.Event
	for _, e := range rec.Snapshot() {
		switch e.Kind {
		case journal.KindUnitBegin:
			begins = append(begins, e)
		case journal.KindAxis:
			axes = append(axes, e)
		case journal.KindUnitEnd:
			ends = append(ends, e)
		}
	}
	if len(begins) != 1 || len(axes) != 1 || len(ends) != 1 {
		t.Fatalf("unit events = %d begins / %d axes / %d ends, want 1 each", len(begins), len(axes), len(ends))
	}
	b, a, e := begins[0], axes[0], ends[0]
	if b != (journal.Event{Kind: journal.KindUnitBegin, TNS: b.TNS}) {
		t.Errorf("unit begin = %+v, want no payload", b)
	}
	if int(a.D) != res.Faults || a.TNS < b.TNS {
		t.Errorf("axis = %+v, want D = %d after the begin", a, res.Faults)
	}
	if int(e.D) != res.Faults || int(e.A) != res.Easy+res.Hard || e.B != 1 {
		t.Errorf("unit end = (faults %d, hits %d, clean %d), want (%d, %d, 1)", e.D, e.A, e.B, res.Faults, res.Easy+res.Hard)
	}
	if e.TNS < b.TNS {
		t.Errorf("unit end starts at %d, before its begin %d", e.TNS, b.TNS)
	}
}

// TestCanceledRunEndsUnclean: a canceled run still closes with
// unit_end, flagged unclean.
func TestCanceledRunEndsUnclean(t *testing.T) {
	col := obs.New()
	rec := journal.New(1024)
	col.SetJournal(rec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Spec{Kind: KindScreen, Circuit: "s27"}, nil, col); err == nil {
		t.Fatal("canceled run returned no error")
	}
	evs := rec.Snapshot()
	last := evs[len(evs)-1]
	if last.Kind != journal.KindUnitEnd || last.B != 0 {
		t.Fatalf("last event = %+v, want an unclean unit_end", last)
	}
}

// TestPanickedRunEndsUnclean: a run that panics still closes with
// unit_end, flagged unclean, and the panic reaches the caller.
func TestPanickedRunEndsUnclean(t *testing.T) {
	col := obs.New()
	rec := journal.New(1024)
	col.SetJournal(rec)
	rec.Subscribe(func(e journal.Event) {
		if e.Kind == journal.KindAxis {
			panic("observer failed")
		}
	})
	func() {
		defer func() {
			if p := recover(); p != "observer failed" {
				t.Errorf("recovered %v, want the observer's panic", p)
			}
		}()
		Run(context.Background(), Spec{Kind: KindFaultSim, Circuit: "s27", Cycles: 100}, nil, col)
	}()
	evs := rec.Snapshot()
	last := evs[len(evs)-1]
	if last.Kind != journal.KindUnitEnd || last.B != 0 {
		t.Fatalf("last event = %+v, want an unclean unit_end", last)
	}
}

// FuzzSpecRoundTrip checks, for arbitrary field values, that Normalize
// is idempotent, that the JSON wire trip preserves the normalized spec
// exactly.
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add("screen", 0.5, int64(7), 2, 3, 100, false)
	f.Add("faultsim", 0.0, int64(0), 0, 0, 0, true)
	f.Add("atpg", 1.0, int64(-3), 1, -2, -5, false)
	f.Add("diagnose", 0.25, int64(42), 9, 1, 17, false)
	f.Add("flow", 0.1, int64(1), 1, 1, 500, false)
	f.Fuzz(func(t *testing.T, kind string, scale float64, seed int64,
		chains, workers, cycles int, uncollapsed bool) {
		sp := Spec{
			Kind: kind, Circuit: "s27", Scale: scale, Seed: seed,
			Chains: chains, Workers: workers, Cycles: cycles,
			Uncollapsed: uncollapsed,
		}
		if err := sp.Normalize(); err != nil {
			t.Skip()
		}
		again := sp
		if err := again.Normalize(); err != nil {
			t.Fatalf("re-normalize: %v", err)
		}
		if !reflect.DeepEqual(sp, again) {
			t.Fatalf("Normalize not idempotent: %+v != %+v", sp, again)
		}
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var wire Spec
		if err := json.Unmarshal(data, &wire); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if err := wire.Normalize(); err != nil {
			t.Fatalf("normalize wire: %v", err)
		}
		if !reflect.DeepEqual(sp, wire) {
			t.Fatalf("wire trip changed spec: %+v != %+v", sp, wire)
		}
	})
}

// TestATPGJobConstantDriver runs an atpg job on an inline netlist with a
// constant driver and checks its verdicts against exhaustive serial
// fault simulation of the same scan-mode combinational model: PODEM
// must find a test for exactly the faults some input vector detects,
// and call only the rest redundant.
func TestATPGJobConstantDriver(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
q = DFF(d)
k = CONST1()
d = AND(a, k)
n = NAND(q, k)
z = OR(n, b)
`
	sp := Spec{Kind: KindATPG, Bench: src, Circuit: "constdrv"}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	d, err := sp.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := atpg.BuildCombModel(d.C)
	if err != nil {
		t.Fatal(err)
	}
	var free []int
	for i, in := range cm.C.Inputs {
		if _, ok := d.Assignments[in]; !ok {
			free = append(free, i)
		}
	}
	if len(free) > 12 {
		t.Fatalf("%d free inputs: too many to enumerate", len(free))
	}
	var seq faultsim.Sequence
	for mask := 0; mask < 1<<len(free); mask++ {
		vec := make([]logic.V, len(cm.C.Inputs))
		for i, in := range cm.C.Inputs {
			vec[i] = d.Assignments[in]
		}
		for j, i := range free {
			vec[i] = logic.FromBool(mask&(1<<j) != 0)
		}
		seq = append(seq, vec)
	}
	faults := fault.Collapsed(cm.C)
	sim := faultsim.RunSerial(cm.C, seq, faults, faultsim.Options{})
	detected := 0
	for _, at := range sim.DetectedAt {
		if at >= 0 {
			detected++
		}
	}
	if res.Faults != len(faults) || res.Aborted != 0 {
		t.Fatalf("job: %d faults, %d aborted; want %d faults, none aborted", res.Faults, res.Aborted, len(faults))
	}
	if res.Found != detected || res.Redundant != len(faults)-detected {
		t.Errorf("job: found %d redundant %d; exhaustive simulation detects %d of %d",
			res.Found, res.Redundant, detected, len(faults))
	}
}
