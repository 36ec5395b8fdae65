package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/scan"
)

// step3Design is the step-3 test circuit. With step 2 skipped every
// hard fault reaches step 3, which then plans ten C/O models and sends
// dozens of faults on to the final pass, in well under a second.
func step3Design(t *testing.T) *scan.Design {
	return genDesign(t, 300, 24, 2, 8)
}

// hardFaults screens d and returns the faults the flow hands to the
// later steps (category 2), as step 3 receives them with step 2 skipped.
func hardFaults(d *scan.Design) []Screened {
	var hard []Screened
	screened, _ := ScreenCtx(context.Background(), d, fault.Collapsed(d.C), ScreenOptions{})
	for _, s := range screened {
		if s.Cat == Cat2 {
			hard = append(hard, s)
		}
	}
	return hard
}

// TestPlanGroupsDeterministicOrder: planning the same faults again
// yields the same models in the same order, so group 3's per-chain
// windows must not follow map iteration order.
func TestPlanGroupsDeterministicOrder(t *testing.T) {
	d := step3Design(t)
	hard := hardFaults(d)
	p := Params{}.withDefaults(d.MaxChainLen())
	want := planGroups(d, hard, p)
	chains := map[int]bool{}
	for _, m := range want {
		for _, s := range m.faults {
			for _, l := range s.Locs {
				chains[l.Chain] = true
			}
		}
	}
	if len(chains) < 2 {
		t.Fatalf("models cover %d chain(s); the order check needs at least 2", len(chains))
	}
	for i := 0; i < 20; i++ {
		if got := planGroups(d, hard, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d planned a different model sequence", i)
		}
	}
}

// TestPlanGroupsPartition: every fault handed to step 3 lands in
// exactly one C/O model — the property runStep3's in-order fold of
// per-model outcomes relies on — under the default grouping distances
// and under tight ones that populate groups 1 and 2.
func TestPlanGroupsPartition(t *testing.T) {
	designs := map[string]*scan.Design{
		"s27/1":  s27Design(t, 1),
		"s27/2":  s27Design(t, 2),
		"gen/8":  step3Design(t),
		"gen/3":  genDesign(t, 200, 16, 2, 3),
		"gen/11": genDesign(t, 400, 32, 3, 11),
	}
	for name, d := range designs {
		hard := hardFaults(d)
		seen := map[fault.Fault]int{}
		for _, s := range hard {
			seen[s.Fault]++
			if seen[s.Fault] > 1 {
				t.Fatalf("%s: fault %s reaches step 3 twice", name, s.Fault.Describe(d.C))
			}
		}
		for _, dist := range []Params{{}, {LargeDist: 4, MedDist: 2, Dist: 1}} {
			p := dist.withDefaults(d.MaxChainLen())
			in := map[fault.Fault]int{}
			for _, m := range planGroups(d, hard, p) {
				for _, s := range m.faults {
					in[s.Fault]++
				}
			}
			for _, s := range hard {
				if n := in[s.Fault]; n != 1 {
					t.Errorf("%s dist=%d: fault %s is in %d models, want 1",
						name, p.Dist, s.Fault.Describe(d.C), n)
				}
			}
			if len(in) != len(hard) {
				t.Errorf("%s dist=%d: models hold %d distinct faults, want %d",
					name, p.Dist, len(in), len(hard))
			}
		}
	}
}

// TestStep3DeterministicAcrossWorkers: step 3 runs its C/O models and
// final-pass faults on the worker pool, yet the report is byte-identical
// at any worker count and every step-3 fault's provenance — the
// per-fault order of its journal events — is the same.
func TestStep3DeterministicAcrossWorkers(t *testing.T) {
	d := step3Design(t)
	faults := fault.Collapsed(d.C)
	var wantRep []byte
	var wantWhy map[fault.Fault]string
	for _, w := range []int{1, 2, 4} {
		col := obs.New()
		rec := journal.New(0)
		col.SetJournal(rec)
		rep, err := RunCtx(context.Background(), d, Params{Workers: w, Obs: col, SkipStep2: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.COCircuits < 2 {
			t.Fatalf("workers=%d: step 3 planned %d C/O models, want >= 2", w, rep.COCircuits)
		}
		if n := col.Snapshot().Counters["atpg.final.generated"]; n == 0 {
			t.Fatalf("workers=%d: the final pass targeted no fault", w)
		}
		if rec.Dropped() != 0 {
			t.Fatalf("workers=%d: journal dropped %d events", w, rec.Dropped())
		}
		events := rec.Snapshot()
		step3 := map[int64]bool{}
		for _, e := range events {
			if e.Kind == journal.KindATPG && (e.Arg == "atpg.seq" || e.Arg == "atpg.final") {
				step3[e.A] = true
			}
		}
		why := map[fault.Fault]string{}
		for _, f := range faults {
			if step3[int64(journalKey(f))] {
				why[f] = BuildProvenance(d.C, events, f).Format()
			}
		}
		got := canonicalReport(t, rep)
		if wantRep == nil {
			wantRep, wantWhy = got, why
			continue
		}
		if !bytes.Equal(got, wantRep) {
			t.Errorf("workers=%d: report differs from workers=1", w)
		}
		if len(why) != len(wantWhy) {
			t.Errorf("workers=%d: %d step-3 faults in the journal, want %d", w, len(why), len(wantWhy))
		}
		for f, s := range wantWhy {
			if why[f] != s {
				t.Errorf("workers=%d: provenance of %s differs:\n%s\nwant:\n%s", w, f.Describe(d.C), why[f], s)
			}
		}
	}
}

// TestStep3CancelMidPass cancels the flow from a journal subscriber as
// soon as the grouped pass (atpg.seq) or the final pass (atpg.final)
// reports its first attempt. The run must return context.Canceled
// promptly, join every worker, and fold no step-3 verdict into the
// partial report.
func TestStep3CancelMidPass(t *testing.T) {
	d := step3Design(t)
	for _, stage := range []string{"atpg.seq", "atpg.final"} {
		t.Run(stage, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			var cancelledAt time.Time
			col := obs.New()
			rec := journal.New(0)
			col.SetJournal(rec)
			rec.Subscribe(func(e journal.Event) {
				if e.Kind == journal.KindATPG && e.Arg == stage {
					once.Do(func() {
						cancelledAt = time.Now()
						cancel()
					})
				}
			})
			rep, err := RunCtx(ctx, d, Params{Workers: 2, Obs: col, SkipStep2: true})
			returned := time.Now()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if lag := returned.Sub(cancelledAt); lag > 2*time.Second {
				t.Errorf("RunCtx returned %v after the cancel, want <= 2s", lag)
			}
			checkGoroutines(t, before)
			s3 := rep.Step3
			if s3.Detected+s3.Undetectable+s3.Undetected != 0 || len(rep.UndetectedFaults) != 0 || rep.FinalCOCircuits != 0 {
				t.Errorf("partial report carries step-3 verdicts: %d/%d/%d, %d undetected faults, %d final models",
					s3.Detected, s3.Undetectable, s3.Undetected, len(rep.UndetectedFaults), rep.FinalCOCircuits)
			}
		})
	}
}
