package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
)

// runWatchCmd is the watch subcommand: a terminal dashboard over a
// running fsctd daemon's job and server views. Returns the process exit
// code.
func runWatchCmd(args []string) int {
	fs := flag.NewFlagSet("fsctstats watch", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "localhost:8341", "fsctd daemon `address` to watch")
		interval = fs.Duration("interval", time.Second, "poll/refresh interval")
		once     = fs.Bool("once", false, "render one frame and exit (scripts, CI)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	tty := stdoutIsTTY() && !*once
	for {
		jobs, sv, err := fetchLive(base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsctstats: %v\n", err)
			return 1
		}
		var b strings.Builder
		if tty {
			b.WriteString("\x1b[2J\x1b[H") // clear + home between frames
		}
		renderWatch(&b, *addr, jobs, sv, tty)
		os.Stdout.WriteString(b.String())
		if *once {
			return 0
		}
		time.Sleep(*interval)
	}
}

// fetchLive pulls one dashboard's worth of daemon state: every job's
// view, progress included, and the server view (queue depth, lifetime
// counters, stall threshold).
func fetchLive(base string) ([]serve.View, serve.ServerView, error) {
	var jobs []serve.View
	var sv serve.ServerView
	if err := getJSON(base, "/api/v1/jobs", &jobs); err != nil {
		return nil, sv, err
	}
	err := getJSON(base, "/api/v1/server", &sv)
	return jobs, sv, err
}

// getJSON decodes the daemon's JSON answer to GET path into v.
func getJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return fmt.Errorf("is fsctd running at %s? %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// renderWatch writes one dashboard frame: a header with queue and job
// totals, then one row per job — completion bar and figures, throughput
// and lifecycle state, a stalled job highlighted. Pure function of its
// inputs (the tests feed it canned views); color only decorates, the
// plain text carries everything.
func renderWatch(w io.Writer, addr string, jobs []serve.View, sv serve.ServerView, color bool) {
	running, done := 0, 0
	for _, j := range jobs {
		switch j.Status {
		case serve.StatusRunning:
			running++
		case serve.StatusDone:
			done++
		}
	}
	fmt.Fprintf(w, "fsctd %s — %d jobs (%d running, %d done)  queue %d  stalls %d  stall threshold %s\n\n",
		addr, len(jobs), running, done, sv.QueueDepth, sv.Counters["serve.jobs.stalls"],
		fmtDur(time.Duration(sv.StallThresholdNS)))
	for _, j := range jobs {
		renderJob(w, j, color)
	}
	if len(jobs) == 0 {
		fmt.Fprintln(w, "(no jobs)")
	}
}

// renderJob writes one job's row.
func renderJob(w io.Writer, j serve.View, color bool) {
	fmt.Fprintf(w, "%s %s %s [%s]", j.ID, j.Kind, j.Circuit, j.Status)
	if j.TraceID != "" {
		// The job's distributed-trace identity: the handle to paste into
		// `fsctstats trace -job` or an external trace viewer.
		fmt.Fprintf(w, "  trace %s", j.TraceID)
	}
	p := j.Progress
	if p == nil { // queued: no runner has started it yet
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintf(w, "  %s %d/%d", bar(p.FaultsDone, p.FaultsTotal, 12), p.FaultsDone, p.FaultsTotal)
	if p.FaultsTotal > 0 {
		fmt.Fprintf(w, " (%.1f%%)", 100*float64(p.FaultsDone)/float64(p.FaultsTotal))
	}
	fmt.Fprintf(w, "  detected %d", p.Detected)
	if p.Throughput > 0 {
		fmt.Fprintf(w, "  %s", fmtRate(p.Throughput))
	}
	switch {
	case p.Stalled:
		tag := fmt.Sprintf("STALLED idle %s", fmtDur(time.Duration(p.IdleNS)))
		if color {
			tag = "\x1b[1;31m" + tag + "\x1b[0m" // bold red: the row to look at
		}
		fmt.Fprintf(w, "  %s", tag)
	case p.Running:
		fmt.Fprintf(w, "  running %s", fmtDur(time.Duration(p.WallNS)))
	case p.Finished && j.Error != "":
		fmt.Fprintf(w, "  after %s: %s", fmtDur(time.Duration(p.WallNS)), j.Error)
	case p.Finished:
		fmt.Fprintf(w, "  done %s", fmtDur(time.Duration(p.WallNS)))
	}
	fmt.Fprintln(w)
}

// bar renders a width-cell completion bar. Unknown totals (a run
// that has not announced its fault axis yet) render as indeterminate.
func bar(done, total, width int) string {
	if total <= 0 {
		return "[" + strings.Repeat("?", width) + "]"
	}
	filled := done * width / total
	if filled > width {
		filled = width
	}
	return "[" + strings.Repeat("=", filled) + strings.Repeat(" ", width-filled) + "]"
}

// fmtDur rounds a duration to a dashboard-friendly precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(100 * time.Millisecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// fmtRate renders a faults-per-second throughput.
func fmtRate(fps float64) string {
	if fps >= 1000 {
		return fmt.Sprintf("%.1f kf/s", fps/1000)
	}
	return fmt.Sprintf("%.0f f/s", fps)
}

// stdoutIsTTY reports whether stdout is a character device, selecting
// full-screen frame redraws over append-only output.
func stdoutIsTTY() bool {
	fi, err := os.Stdout.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
