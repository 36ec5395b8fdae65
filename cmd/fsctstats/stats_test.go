package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ledger"
)

// rec builds a fsctest run record for circuit at minute min with the
// given headline metrics.
func rec(circuit string, min int, coverage float64, wallNS int64, hits, misses float64) ledger.Record {
	return ledger.Record{
		Schema:  ledger.Schema,
		Time:    time.Date(2026, 8, 1, 12, min, 0, 0, time.UTC),
		CLI:     "fsctest",
		Circuit: circuit,
		Hash:    ledger.HashString(0xfeed),
		WallNS:  wallNS,
		Metrics: map[string]float64{
			"coverage":                     coverage,
			"counters.engine.cache.hits":   hits,
			"counters.engine.cache.misses": misses,
		},
	}
}

func TestValuesDerivesCacheHitRate(t *testing.T) {
	v := values(rec("s27", 0, 99, 5e9, 9, 1))
	if v[keyWall] != 5e9 {
		t.Errorf("wall_ns = %g, want 5e9", v[keyWall])
	}
	if v[keyHitRate] != 0.9 {
		t.Errorf("cache_hit_rate = %g, want 0.9", v[keyHitRate])
	}
	// No cache counters: no hit-rate key rather than a bogus zero.
	if _, ok := values(ledger.Record{WallNS: 1})[keyHitRate]; ok {
		t.Error("cache_hit_rate derived without cache counters")
	}
}

// TestCheckTwoRunRoundTrip is the acceptance round-trip: two runs go
// through the real Append/Read path; check exits zero when the second
// run matches the first and non-zero when a metric drifted.
func TestCheckTwoRunRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := ledger.Append(path, rec("s9234", 0, 98.5, 10e9, 8, 2)); err != nil {
		t.Fatal(err)
	}

	// Run 2, stable: same coverage, wall within the ±50% band.
	if err := ledger.Append(path, rec("s9234", 1, 98.5, 11e9, 8, 2)); err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	drifted, err := runCheck(&out, recs, checkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if drifted {
		t.Fatalf("stable pair flagged as drift:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "no drift") {
		t.Errorf("ok summary missing:\n%s", out.String())
	}

	// Run 3, injected coverage drop: must be flagged and must name the
	// metric. A drop is drift even though it is a "decrease".
	if err := ledger.Append(path, rec("s9234", 2, 95.0, 11e9, 8, 2)); err != nil {
		t.Fatal(err)
	}
	recs, err = ledger.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	drifted, err = runCheck(&out, recs, checkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !drifted {
		t.Fatalf("injected coverage drop not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DRIFT") || !strings.Contains(out.String(), "coverage") {
		t.Errorf("drift report does not name the metric:\n%s", out.String())
	}
}

// TestCheckRollingMedianAbsorbsOutlier: with a window of prior runs the
// baseline is their median, so one historic outlier must not poison the
// comparison.
func TestCheckRollingMedianAbsorbsOutlier(t *testing.T) {
	recs := []ledger.Record{
		rec("s27", 0, 99, 10e9, 5, 5),
		rec("s27", 1, 99, 90e9, 5, 5), // historic wall-time outlier
		rec("s27", 2, 99, 10e9, 5, 5),
		rec("s27", 3, 99, 11e9, 5, 5), // newest: near the median, fine
	}
	var out bytes.Buffer
	drifted, err := runCheck(&out, recs, checkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if drifted {
		t.Fatalf("median baseline did not absorb the outlier:\n%s", out.String())
	}
}

// TestCheckSeriesAreIndependent: drift is judged within a (CLI,
// circuit) series; a single record of another circuit has no baseline
// and must pass vacuously.
func TestCheckSeriesAreIndependent(t *testing.T) {
	recs := []ledger.Record{
		rec("s27", 0, 99, 10e9, 5, 5),
		rec("s27", 1, 99, 10e9, 5, 5),
		rec("s1423", 2, 42, 500e9, 0, 10), // lone run, wildly different numbers
	}
	var out bytes.Buffer
	drifted, err := runCheck(&out, recs, checkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if drifted {
		t.Fatalf("lone series produced drift:\n%s", out.String())
	}
}

func TestCheckThresholdOverrideAndKeys(t *testing.T) {
	recs := []ledger.Record{
		rec("s27", 0, 100, 10e9, 5, 5),
		rec("s27", 1, 80, 10e9, 5, 5), // -20% coverage
	}
	// Explicit generous threshold: the drop is inside ±30%.
	var out bytes.Buffer
	drifted, err := runCheck(&out, recs, checkOptions{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if drifted {
		t.Fatalf("-threshold 0.3 did not widen the band:\n%s", out.String())
	}
	// Restricting -keys to wall_ns hides the coverage drop entirely.
	out.Reset()
	drifted, err = runCheck(&out, recs, checkOptions{Keys: []string{keyWall}})
	if err != nil {
		t.Fatal(err)
	}
	if drifted {
		t.Fatalf("coverage checked despite -keys wall_ns:\n%s", out.String())
	}
}

func TestCheckJSONOutput(t *testing.T) {
	recs := []ledger.Record{
		rec("s27", 0, 100, 10e9, 5, 5),
		rec("s27", 1, 50, 10e9, 5, 5),
	}
	var out bytes.Buffer
	drifted, err := runCheck(&out, recs, checkOptions{JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	if !drifted {
		t.Fatal("halved coverage not flagged")
	}
	var doc struct {
		Checked int     `json:"checked"`
		Drifts  []drift `json:"drifts"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("check -json output not JSON: %v\n%s", err, out.String())
	}
	if doc.Checked != 1 || len(doc.Drifts) != 1 || doc.Drifts[0].Key != "coverage" {
		t.Fatalf("unexpected JSON document: %+v", doc)
	}
}

func TestListAndTrendRender(t *testing.T) {
	recs := []ledger.Record{
		rec("s27", 0, 99.5, 10e9, 5, 5),
		rec("s27", 1, 99.5, 10e9, 5, 5),
	}
	recs[1].Hash = ledger.HashString(0xbeef) // structure changed between runs

	var out bytes.Buffer
	if err := runList(&out, recs, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "s27") || !strings.Contains(out.String(), "2 record(s)") {
		t.Errorf("list output wrong:\n%s", out.String())
	}

	out.Reset()
	if err := runTrend(&out, recs, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "fsctest s27:") {
		t.Errorf("trend misses the series header:\n%s", got)
	}
	if !strings.Contains(got, "99.50%") || !strings.Contains(got, "50.0%") {
		t.Errorf("trend misses coverage / cache-hit columns:\n%s", got)
	}
	if !strings.Contains(got, "structural hash changed") {
		t.Errorf("trend does not call out the hash change:\n%s", got)
	}

	out.Reset()
	if err := runTrend(&out, recs, true); err != nil {
		t.Fatal(err)
	}
	var doc map[string][]trendRow
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("trend -json output not JSON: %v\n%s", err, out.String())
	}
	rows := doc["fsctest s27"]
	if len(rows) != 2 || rows[0].Coverage == nil || *rows[0].Coverage != 99.5 || !rows[1].HashChange {
		t.Fatalf("unexpected trend JSON: %+v", rows)
	}
}

// srvRec builds a daemon (cmd/fsctd) run record: the CLI is always
// "fsctd" and the job kind lives in the server metadata.
func srvRec(kind, circuit string, min int, coverage float64) ledger.Record {
	r := rec(circuit, min, coverage, 1e9, 5, 5)
	r.CLI = "fsctd"
	r.Server = &ledger.ServerMeta{
		JobID: "j000001", Kind: kind, Status: "done", QueueNS: 1000,
	}
	return r
}

// TestMixedLedgerTolerated: a ledger holding pre-service records (no
// "server" field at all) alongside daemon records must parse, and the
// old records must come back with nil Server rather than a zero value.
func TestMixedLedgerTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := ledger.Append(path, rec("s27", 0, 99, 1e9, 5, 5), srvRec("flow", "s27", 1, 99)); err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}
	if recs[0].Server != nil {
		t.Errorf("batch record unmarshaled with Server = %+v, want nil", recs[0].Server)
	}
	if recs[1].Server == nil || recs[1].Server.Kind != "flow" {
		t.Errorf("daemon record lost its server metadata: %+v", recs[1].Server)
	}
	// The batch record must not carry a "server" key on disk either —
	// old readers would choke on fields they cannot ignore, and the
	// omitempty contract is what keeps the schema backward-readable.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if strings.Contains(lines[0], `"server"`) {
		t.Errorf("batch record serialized a server field:\n%s", lines[0])
	}
	if !strings.Contains(lines[1], `"server"`) {
		t.Errorf("daemon record dropped its server field:\n%s", lines[1])
	}

	// Every subcommand must render the mixed set without error.
	var out bytes.Buffer
	if err := runList(&out, recs, false); err != nil {
		t.Fatalf("list over mixed ledger: %v", err)
	}
	out.Reset()
	if err := runTrend(&out, recs, false); err != nil {
		t.Fatalf("trend over mixed ledger: %v", err)
	}
	out.Reset()
	if _, err := runCheck(&out, recs, checkOptions{}); err != nil {
		t.Fatalf("check over mixed ledger: %v", err)
	}
}

// TestServerKindSplitsSeries: daemon jobs of different kinds over the
// same circuit are different workloads; grouping them into one series
// would drift-check a flow run against a faultsim run.
func TestServerKindSplitsSeries(t *testing.T) {
	recs := []ledger.Record{
		srvRec("flow", "s27", 0, 99),
		srvRec("faultsim", "s27", 1, 42), // wildly different coverage, fine: other kind
		srvRec("flow", "s27", 2, 99),
		srvRec("faultsim", "s27", 3, 42),
	}
	keys, byGroup := groups(recs)
	if len(keys) != 2 {
		t.Fatalf("groups = %v, want 2 series", keys)
	}
	if len(byGroup["fsctd/flow s27"]) != 2 || len(byGroup["fsctd/faultsim s27"]) != 2 {
		t.Fatalf("series split wrong: %v", keys)
	}
	var out bytes.Buffer
	drifted, err := runCheck(&out, recs, checkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if drifted {
		t.Fatalf("cross-kind comparison leaked into drift check:\n%s", out.String())
	}
}

func TestParseKeys(t *testing.T) {
	if got := parseKeys(""); got != nil {
		t.Errorf("parseKeys(\"\") = %v", got)
	}
	got := parseKeys("coverage, wall_ns,,cache_hit_rate ")
	want := []string{"coverage", "wall_ns", "cache_hit_rate"}
	if len(got) != len(want) {
		t.Fatalf("parseKeys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseKeys = %v, want %v", got, want)
		}
	}
}

// TestExactKeyThresholdWins pins the two-level threshold lookup: a full
// dotted key overrides the final-segment family entry, full keys match
// leaves the family map would skip, and a key matching neither allows
// no movement.
func TestExactKeyThresholdWins(t *testing.T) {
	th := map[string]float64{
		"ns_per_op":                   0.25,
		"a.ns_per_op":                 1.0, // exact key loosens the family bound
		"metrics.counters.cache.hits": 0.05,
	}
	for key, want := range map[string]float64{
		"a.ns_per_op":                  1.0,
		"b.ns_per_op":                  0.25,
		"ns_per_op":                    0.25,
		"metrics.counters.cache.hits":  0.05,
		"metrics.counters.cache.total": 0,
		"hits":                         0,
	} {
		if got := thresholdFor(key, th); got != want {
			t.Errorf("thresholdFor(%q) = %v, want %v", key, got, want)
		}
	}
	// +60% passes under the exact key's 100% allowance; +10% on a 5%
	// counter does not.
	if drifted(changeRatio(100, 160), thresholdFor("a.ns_per_op", th)) {
		t.Error("exact-key allowance must cover a +60% move")
	}
	if !drifted(changeRatio(10, 11), thresholdFor("metrics.counters.cache.hits", th)) {
		t.Error("+10% on a 5% counter must drift")
	}
}

// TestDriftIsTwoSided: a drop beyond the allowance drifts just as a
// rise does.
func TestDriftIsTwoSided(t *testing.T) {
	allowed := thresholdFor("run.coverage", map[string]float64{"coverage": 0.1})
	if r := changeRatio(100, 60); !drifted(r, allowed) {
		t.Errorf("a -40%% coverage drop (ratio %v) must drift at ±10%%", r)
	}
	if r := changeRatio(100, 140); !drifted(r, allowed) {
		t.Errorf("a +40%% rise (ratio %v) must drift at ±10%%", r)
	}
	if r := changeRatio(100, 95); drifted(r, allowed) {
		t.Errorf("a -5%% move (ratio %v) must stay inside ±10%%", r)
	}
}

// TestZeroBaselineRatio: any move off a zero baseline is a full +100%
// change, and 0 -> 0 is none, so a zero-allowance counter such as
// "undetected" drifts exactly when it leaves zero.
func TestZeroBaselineRatio(t *testing.T) {
	if r := changeRatio(0, 3); r != 1 {
		t.Errorf("0 -> 3 ratio = %v, want 1", r)
	}
	if r := changeRatio(0, -3); r != 1 {
		t.Errorf("0 -> -3 ratio = %v, want 1", r)
	}
	if r := changeRatio(0, 0); r != 0 {
		t.Errorf("0 -> 0 ratio = %v, want 0", r)
	}
	allowed := thresholdFor("undetected", checkThresholds)
	if !drifted(changeRatio(0, 1), allowed) {
		t.Error("undetected 0 -> 1 must drift")
	}
	if drifted(changeRatio(0, 0), allowed) {
		t.Error("undetected 0 -> 0 must not drift")
	}
	var out bytes.Buffer
	recs := []ledger.Record{
		rec("s27", 0, 0, 1000, 0, 0),
		rec("s27", 1, 0, 1000, 0, 0),
	}
	if drifted, err := runCheck(&out, recs, checkOptions{Keys: []string{"coverage"}}); err != nil || drifted {
		t.Fatalf("0 -> 0 coverage drifted=%v err=%v:\n%s", drifted, err, out.String())
	}
	recs[1].Metrics["coverage"] = 50
	out.Reset()
	if drifted, err := runCheck(&out, recs, checkOptions{Keys: []string{"coverage"}}); err != nil || !drifted {
		t.Fatalf("0 -> 50 coverage drifted=%v err=%v:\n%s", drifted, err, out.String())
	}
}
