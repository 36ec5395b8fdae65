package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/ledger"
)

// Derived metric keys synthesized from each record, alongside its
// flattened metrics map: the run's wall time and the engine artifact
// cache hit rate — the three headline trend columns.
const (
	keyWall    = "wall_ns"
	keyHitRate = "cache_hit_rate"
)

// checkThresholds is the per-key allowed |ratio| for `fsctstats check`,
// looked up via thresholdFor (exact dotted key first, then the final
// segment). Coverage is expected to be deterministic for a fixed
// circuit/seed, so its band is tight; wall time is noisy; cache hit
// rate sits between.
var checkThresholds = map[string]float64{
	"coverage":   0.005,
	keyWall:      0.50,
	keyHitRate:   0.20,
	"faults":     0.0, // fault counts must not move at all
	"undetected": 0.0,
}

// defaultCheckKeys are the metrics checked when -keys is not given.
var defaultCheckKeys = []string{"coverage", keyWall, keyHitRate}

// thresholdFor resolves the allowed |ratio| for a flattened key: an
// exact dotted-key entry wins, then the key's final path segment; a key
// matching neither allows no movement at all.
func thresholdFor(key string, thresholds map[string]float64) float64 {
	if t, ok := thresholds[key]; ok {
		return t
	}
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		return thresholds[key[i+1:]]
	}
	return 0
}

// changeRatio is the relative move from old to now (+0.10 = 10% up). A
// move off a zero baseline counts as a full +100%; 0 -> 0 is no move.
func changeRatio(old, now float64) float64 {
	switch {
	case old != 0:
		return (now - old) / old
	case now != 0:
		return 1
	}
	return 0
}

// drifted reports whether a ratio left the allowed band in either
// direction: a coverage drop is as suspicious as a runtime rise.
func drifted(ratio, allowed float64) bool { return ratio > allowed || ratio < -allowed }

// values builds the record's comparable metric map: every flattened
// metric, plus the derived wall_ns and cache_hit_rate keys.
func values(r ledger.Record) map[string]float64 {
	out := make(map[string]float64, len(r.Metrics)+2)
	for k, v := range r.Metrics {
		out[k] = v
	}
	out[keyWall] = float64(r.WallNS)
	hits, okh := r.Metrics["counters.engine.cache.hits"]
	misses, okm := r.Metrics["counters.engine.cache.misses"]
	if okh && okm && hits+misses > 0 {
		out[keyHitRate] = hits / (hits + misses)
	}
	return out
}

// groupKey identifies a trend series: runs of the same CLI over the
// same circuit are comparable, others are not. Daemon records (from
// cmd/fsctd) all share one CLI name, so their job kind joins the key —
// a flow job and a faultsim job over the same circuit report different
// metrics and must not drift-check against each other. Records without
// server metadata (every record written before the service layer
// existed) keep their original key unchanged.
func groupKey(r ledger.Record) string {
	if r.Server != nil && r.Server.Kind != "" {
		return r.CLI + "/" + r.Server.Kind + " " + r.Circuit
	}
	return r.CLI + " " + r.Circuit
}

// groups splits records into time-ordered trend series, returning the
// sorted group keys and the grouped records.
func groups(recs []ledger.Record) ([]string, map[string][]ledger.Record) {
	m := map[string][]ledger.Record{}
	for _, r := range recs {
		m[groupKey(r)] = append(m[groupKey(r)], r)
	}
	keys := make([]string, 0, len(m))
	for k, g := range m {
		sort.SliceStable(g, func(i, j int) bool { return g[i].Time.Before(g[j].Time) })
		m[k] = g
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, m
}

// runList prints one line per record (or the records as JSON).
func runList(w io.Writer, recs []ledger.Record, jsonOut bool) error {
	if jsonOut {
		return writeJSON(w, recs)
	}
	fmt.Fprintf(w, "%-20s %-10s %-10s %5s %10s %9s\n",
		"TIME", "CLI", "CIRCUIT", "EXIT", "WALL", "COVERAGE")
	for _, r := range recs {
		fmt.Fprintf(w, "%-20s %-10s %-10s %5d %10s %9s\n",
			r.Time.Format("2006-01-02 15:04:05"), r.CLI, orDash(r.Circuit),
			r.Exit, time.Duration(r.WallNS).Round(time.Millisecond),
			fmtOpt(r.Metrics["coverage"], r.Metrics != nil, "%.2f%%"))
	}
	fmt.Fprintf(w, "%d record(s)\n", len(recs))
	return nil
}

// trendRow is one run within a trend series, with the headline columns
// extracted.
type trendRow struct {
	Time       time.Time `json:"time"`
	Exit       int       `json:"exit"`
	WallNS     int64     `json:"wall_ns"`
	Coverage   *float64  `json:"coverage,omitempty"`
	CacheHit   *float64  `json:"cache_hit_rate,omitempty"`
	Hash       string    `json:"hash,omitempty"`
	HashChange bool      `json:"hash_changed,omitempty"`
}

// runTrend prints per-(CLI, circuit) series of runtime, fault coverage
// and cache hit rate — the cross-run view of the numbers each single
// run prints.
func runTrend(w io.Writer, recs []ledger.Record, jsonOut bool) error {
	keys, byGroup := groups(recs)
	out := map[string][]trendRow{}
	for _, k := range keys {
		g := byGroup[k]
		rows := make([]trendRow, len(g))
		for i, r := range g {
			v := values(r)
			rows[i] = trendRow{Time: r.Time, Exit: r.Exit, WallNS: r.WallNS, Hash: r.Hash}
			if c, ok := v["coverage"]; ok {
				cc := c
				rows[i].Coverage = &cc
			}
			if h, ok := v[keyHitRate]; ok {
				hh := h
				rows[i].CacheHit = &hh
			}
			rows[i].HashChange = i > 0 && r.Hash != g[i-1].Hash
		}
		out[k] = rows
	}
	if jsonOut {
		return writeJSON(w, out)
	}
	for _, k := range keys {
		fmt.Fprintf(w, "%s:\n", k)
		fmt.Fprintf(w, "  %-20s %5s %10s %9s %9s\n", "TIME", "EXIT", "WALL", "COVERAGE", "CACHE-HIT")
		for _, row := range out[k] {
			note := ""
			if row.HashChange {
				note = "  (structural hash changed)"
			}
			fmt.Fprintf(w, "  %-20s %5d %10s %9s %9s%s\n",
				row.Time.Format("2006-01-02 15:04:05"), row.Exit,
				time.Duration(row.WallNS).Round(time.Millisecond),
				fmtPtr(row.Coverage, "%.2f%%"), fmtPtr(pct(row.CacheHit), "%.1f%%"), note)
		}
	}
	return nil
}

// checkOptions configures runCheck.
type checkOptions struct {
	Keys      []string // metric keys to compare (default defaultCheckKeys)
	Window    int      // rolling-median window over prior runs (default 5)
	Threshold float64  // >0 overrides every per-key threshold
	JSON      bool
	Verbose   bool
}

// drift is one flagged metric: the newest run's value left the allowed
// band around the rolling median of the prior runs.
type drift struct {
	Group   string  `json:"group"`
	Key     string  `json:"key"`
	Median  float64 `json:"median"`
	Latest  float64 `json:"latest"`
	Ratio   float64 `json:"ratio"`
	Allowed float64 `json:"allowed"`
}

// runCheck compares, within every (CLI, circuit) series, the newest
// run's metrics against the rolling median of up to Window prior runs,
// and reports the drifts. Returns true when any metric drifted (the CLI
// exits non-zero). Series with no prior runs pass vacuously: a fresh
// ledger has no baseline to drift from.
func runCheck(w io.Writer, recs []ledger.Record, opt checkOptions) (bool, error) {
	keys := opt.Keys
	if len(keys) == 0 {
		keys = defaultCheckKeys
	}
	window := opt.Window
	if window <= 0 {
		window = 5
	}
	var drifts []drift
	checked := 0
	groupKeys, byGroup := groups(recs)
	for _, gk := range groupKeys {
		g := byGroup[gk]
		if len(g) < 2 {
			continue
		}
		latest := values(g[len(g)-1])
		prior := g[:len(g)-1]
		if len(prior) > window {
			prior = prior[len(prior)-window:]
		}
		baseline := medians(prior, keys)
		checked++
		for _, key := range keys {
			old, okOld := baseline[key]
			now, okNow := latest[key]
			if !okOld || !okNow {
				continue // key absent on one side: nothing to compare
			}
			allowed := opt.Threshold
			if allowed <= 0 {
				allowed = thresholdFor(key, checkThresholds)
			}
			ratio := changeRatio(old, now)
			if opt.Verbose {
				fmt.Fprintf(w, "%s: %s median=%.4g latest=%.4g ratio=%+.2f%% (allowed ±%.2f%%)\n",
					gk, key, old, now, 100*ratio, 100*allowed)
			}
			if drifted(ratio, allowed) {
				drifts = append(drifts, drift{
					Group: gk, Key: key, Median: old, Latest: now,
					Ratio: ratio, Allowed: allowed,
				})
			}
		}
	}
	if opt.JSON {
		if err := writeJSON(w, map[string]any{"checked": checked, "drifts": drifts}); err != nil {
			return false, err
		}
		return len(drifts) > 0, nil
	}
	for _, d := range drifts {
		fmt.Fprintf(w, "DRIFT %s: %s %.4g -> %.4g (%+.2f%%, allowed ±%.2f%%)\n",
			d.Group, d.Key, d.Median, d.Latest, 100*d.Ratio, 100*d.Allowed)
	}
	if len(drifts) == 0 {
		fmt.Fprintf(w, "ok: %d series checked, no drift\n", checked)
	}
	return len(drifts) > 0, nil
}

// medians computes, per key, the median of the key's values over the
// records that carry it.
func medians(recs []ledger.Record, keys []string) map[string]float64 {
	out := map[string]float64{}
	for _, key := range keys {
		var vals []float64
		for _, r := range recs {
			if v, ok := values(r)[key]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		mid := len(vals) / 2
		if len(vals)%2 == 1 {
			out[key] = vals[mid]
		} else {
			out[key] = (vals[mid-1] + vals[mid]) / 2
		}
	}
	return out
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fmtOpt(v float64, ok bool, format string) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

func fmtPtr(v *float64, format string) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf(format, *v)
}

// pct scales a ratio pointer to percent for display.
func pct(v *float64) *float64 {
	if v == nil {
		return nil
	}
	p := *v * 100
	return &p
}

// parseKeys splits a -keys list, dropping empty segments.
func parseKeys(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			out = append(out, k)
		}
	}
	return out
}
