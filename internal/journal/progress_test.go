package journal

import (
	"strings"
	"testing"
)

func TestProgressPlainLines(t *testing.T) {
	var b strings.Builder
	p := NewProgress(&b, false)

	p.Observe(Event{Kind: KindPhaseBegin, Arg: "screen", TNS: 0})
	p.Observe(Event{Kind: KindBatch, Arg: "screen", A: 0, B: 4, TNS: 2e9, DurNS: 1e9})
	p.Observe(Event{Kind: KindBatch, Arg: "screen", A: 1, B: 4, TNS: 3e9, DurNS: 3e9})
	p.Observe(Event{Kind: KindPhaseEnd, Arg: "screen", TNS: 0, DurNS: 8e9})
	p.Flush()

	out := b.String()
	for _, want := range []string{
		"[    0.0000s] phase screen: start",
		"2/4 batches 50%",
		"/s",  // a rate is rendered
		"ETA", // and an ETA while work remains
		"[    8.0000s] phase screen: end (8s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\r") {
		t.Error("plain (non-tty) output uses carriage returns")
	}
}

func TestProgressThrottles(t *testing.T) {
	var b strings.Builder
	p := NewProgress(&b, false) // 2s status period off-tty

	p.Observe(Event{Kind: KindPhaseBegin, Arg: "p", TNS: 0})
	for i := 0; i < 1000; i++ {
		p.Observe(Event{Kind: KindBatch, Arg: "p", A: int64(i), B: 1000,
			TNS: int64(i) * 1e6, DurNS: 1e6})
	}
	// 1000 batches ending 1ms apart never cross the 2s period, so only
	// the phase-begin line prints.
	if lines := strings.Count(b.String(), "\n"); lines != 1 {
		t.Errorf("throttled progress printed %d lines, want 1:\n%s", lines, b.String())
	}
}

// TestProgressGolden pins the off-terminal rendering of a fixed event
// slice: stamped phase and note lines, and the throttled status line
// (the first batch is within the 2s period of the phase start, the
// second past it, the third within the period of the second).
func TestProgressGolden(t *testing.T) {
	events := []Event{
		{Kind: KindPhaseBegin, Arg: "screen", TNS: 12_300_000},
		{Kind: KindBatch, Arg: "screen", A: 0, B: 8, TNS: 12_300_000, DurNS: 500_000_000},
		{Kind: KindBatch, Arg: "screen", A: 1, B: 8, TNS: 1_012_300_000, DurNS: 1_500_000_000},
		{Kind: KindBatch, Arg: "screen", A: 2, B: 8, TNS: 2_512_300_000, DurNS: 500_000_000},
		{Kind: KindNote, Arg: "screen: 8 faults -> 3 easy, 4 hard, 1 unaffecting", TNS: 3_100_000_000},
		{Kind: KindPhaseEnd, Arg: "screen", TNS: 12_300_000, DurNS: 3_100_000_000},
	}
	var b strings.Builder
	p := NewProgress(&b, false)
	for _, e := range events {
		p.Observe(e)
	}
	p.Flush()
	want := `[    0.0123s] phase screen: start
screen: 2/8 batches 25%  1/s  ETA 7.5s
[    3.1000s] screen: 8 faults -> 3 easy, 4 hard, 1 unaffecting
[    3.1123s] phase screen: end (3.1s)
`
	if got := b.String(); got != want {
		t.Errorf("progress golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestProgressTTYRewritesInPlace(t *testing.T) {
	var b strings.Builder
	p := NewProgress(&b, true)

	p.Observe(Event{Kind: KindPhaseBegin, Arg: "p", TNS: 0})
	p.Observe(Event{Kind: KindBatch, Arg: "p", A: 0, B: 2, TNS: 0, DurNS: 2e8})
	p.Observe(Event{Kind: KindPhaseEnd, Arg: "p", TNS: 0, DurNS: 3e8})
	p.Flush()

	out := b.String()
	if !strings.Contains(out, "\r") {
		t.Error("tty output never rewrites in place")
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("tty output not terminated by Flush/phase end")
	}
}

func TestProgressNil(t *testing.T) {
	var p *Progress
	p.Observe(Event{Kind: KindBatch})
	p.Flush() // must not panic
}
