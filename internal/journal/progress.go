package journal

// Live progress reporting: a Progress subscribes to a recorder
// (Recorder.Subscribe) and prints every phase begin/end and every note
// as a permanent line stamped with its offset from the recorder origin,
// with a throttled status line per phase in between:
//
//	[    0.0123s] phase screen: start
//	screen: 512/2876 batches 48%  12843/s  ETA 0.2s
//	[    0.4568s] phase screen: end (444.5ms)
//
// On a terminal the status line rewrites in place; on a pipe it
// degrades to occasional plain lines. Stamps, rates and throttling read
// event time, never the wall clock, so the output is a pure function of
// the event stream.

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress renders live run progress from journal events. Construct
// with NewProgress and attach with rec.Subscribe(p.Observe). Safe for
// concurrent Observe calls.
type Progress struct {
	w         io.Writer
	tty       bool
	minPeriod int64 // status-line throttle, in event-time nanoseconds

	mu        sync.Mutex
	phase     string
	pools     map[string]*poolProgress
	lastPrint int64 // event-time offset of the latest line
	lineOpen  bool  // a \r-rewritten line is on screen (tty only)
}

type poolProgress struct {
	done     int64
	total    int64
	firstTNS int64 // TNS of the first batch observed
	lastTNS  int64 // end offset of the latest batch
}

// NewProgress returns a reporter writing to w. tty selects in-place
// line rewriting; off-terminal output is throttled harder. A typical
// caller detects tty by checking whether stderr is a character device.
func NewProgress(w io.Writer, tty bool) *Progress {
	period := 2 * time.Second
	if tty {
		period = 150 * time.Millisecond
	}
	return &Progress{
		w:         w,
		tty:       tty,
		minPeriod: period.Nanoseconds(),
		pools:     make(map[string]*poolProgress),
	}
}

// Observe consumes one journal event; subscribe it to the recorder.
// No-op on the nil reporter.
func (p *Progress) Observe(e Event) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Kind {
	case KindNote:
		p.stampLocked(e.TNS, e.Arg)
	case KindPhaseBegin:
		p.phase = e.Arg
		p.pools = make(map[string]*poolProgress)
		p.stampLocked(e.TNS, "phase "+e.Arg+": start")
	case KindPhaseEnd:
		if p.phase == e.Arg {
			p.phase = ""
		}
		p.stampLocked(e.TNS+e.DurNS, fmt.Sprintf("phase %s: end (%s)", e.Arg,
			time.Duration(e.DurNS).Round(time.Microsecond)))
	case KindBatch:
		pp := p.pools[e.Arg]
		if pp == nil {
			pp = &poolProgress{firstTNS: e.TNS}
			p.pools[e.Arg] = pp
		}
		pp.done++
		pp.total = e.B
		end := e.TNS + e.DurNS
		pp.lastTNS = max(pp.lastTNS, end)
		if end-p.lastPrint >= p.minPeriod {
			p.printLocked(end, p.renderLocked(e.Arg, pp), true)
		}
	}
}

// renderLocked formats the status line for one pool. Rate and ETA come
// from the event timestamps, not the wall clock, so replaying a journal
// renders the same lines.
func (p *Progress) renderLocked(pool string, pp *poolProgress) string {
	var b strings.Builder
	if p.phase != "" {
		fmt.Fprintf(&b, "%s: ", p.phase)
	} else {
		fmt.Fprintf(&b, "%s: ", pool)
	}
	fmt.Fprintf(&b, "%d/%d batches", pp.done, pp.total)
	if pp.total > 0 {
		fmt.Fprintf(&b, " %d%%", 100*pp.done/pp.total)
	}
	elapsed := time.Duration(pp.lastTNS - pp.firstTNS)
	if elapsed > 0 && pp.done > 0 {
		rate := float64(pp.done) / elapsed.Seconds()
		fmt.Fprintf(&b, "  %.0f/s", rate)
		if remain := pp.total - pp.done; remain > 0 && rate > 0 {
			eta := time.Duration(float64(remain)/rate*1e9) * time.Nanosecond
			fmt.Fprintf(&b, "  ETA %s", eta.Round(100*time.Millisecond))
		}
	}
	return b.String()
}

// printLocked writes one line at event time t. A status line rewrites
// in place on a tty (padded to wipe a longer predecessor) and is a
// plain line elsewhere; a permanent line replaces any in-place one.
func (p *Progress) printLocked(t int64, line string, status bool) {
	p.lastPrint = t
	switch {
	case status && p.tty:
		fmt.Fprintf(p.w, "\r%-78s", line)
		p.lineOpen = true
	case p.lineOpen:
		fmt.Fprintf(p.w, "\r%-78s\n", line)
		p.lineOpen = false
	default:
		fmt.Fprintln(p.w, line)
	}
}

// stampLocked prints text as a permanent line stamped with event time t.
func (p *Progress) stampLocked(t int64, text string) {
	p.printLocked(t, fmt.Sprintf("[%10.4fs] %s", time.Duration(t).Seconds(), text), false)
}

// Flush terminates any in-place status line; call once after the run
// (and before printing reports). No-op off-terminal and on nil.
func (p *Progress) Flush() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lineOpen {
		fmt.Fprintln(p.w)
		p.lineOpen = false
	}
}
