package ledger

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func testRecord(cli, circuit string, at time.Time) Record {
	return Record{
		Schema:  Schema,
		Time:    at,
		CLI:     cli,
		Circuit: circuit,
		Hash:    HashString(0xdeadbeef),
		Flags:   map[string]string{"scale": "0.1"},
		WallNS:  123456,
		Metrics: map[string]float64{"counters.faultsim.detected": 42},
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	if err := Append(path, testRecord("fsctest", "s27", t0)); err != nil {
		t.Fatal(err)
	}
	// Second append reopens the file — records must accumulate.
	if err := Append(path,
		testRecord("fsctest", "s1423", t0.Add(time.Minute)),
		testRecord("faultsim", "s27", t0.Add(2*time.Minute))); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	r := recs[0]
	if r.Schema != Schema || r.CLI != "fsctest" || r.Circuit != "s27" {
		t.Fatalf("first record corrupted: %+v", r)
	}
	if r.Hash != "00000000deadbeef" || r.Flags["scale"] != "0.1" {
		t.Fatalf("hash/flags lost: %+v", r)
	}
	if r.Metrics["counters.faultsim.detected"] != 42 {
		t.Fatalf("metrics lost: %+v", r.Metrics)
	}
	if !recs[2].Time.After(recs[0].Time) {
		t.Fatal("append order not preserved")
	}
}

// TestReadToleratesTornTail: a run killed mid-write leaves a partial
// final line; Read must drop it and keep everything before it.
func TestReadToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := Append(path, testRecord("fsctest", "s27", time.Now())); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":1,"cli":"faultsim","circ`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err := Read(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].CLI != "fsctest" {
		t.Fatalf("read %+v, want the one intact record", recs)
	}
}

// TestReadRejectsMidFileCorruption: a bad line with valid records after
// it is not a torn tail — it is corruption and must error.
func TestReadRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	good := `{"schema":1,"cli":"fsctest"}`
	content := good + "\n" + `{"schema":1,` + "\n" + good + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("mid-file corruption accepted (err=%v)", err)
	}
}

func TestFilter(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	recs := []Record{
		testRecord("fsctest", "s27", t0),
		testRecord("fsctest", "s1423", t0.Add(time.Hour)),
		testRecord("faultsim", "s27", t0.Add(2*time.Hour)),
		testRecord("fsctest", "s27", t0.Add(3*time.Hour)),
	}
	if got := (Filter{Circuit: "s27"}).Apply(recs); len(got) != 3 {
		t.Fatalf("circuit filter kept %d, want 3", len(got))
	}
	if got := (Filter{CLI: "faultsim"}).Apply(recs); len(got) != 1 || got[0].Circuit != "s27" {
		t.Fatalf("cli filter = %+v", got)
	}
	if got := (Filter{Since: t0.Add(90 * time.Minute)}).Apply(recs); len(got) != 2 {
		t.Fatalf("since filter kept %d, want 2", len(got))
	}
	got := (Filter{Circuit: "s27", Last: 2}).Apply(recs)
	if len(got) != 2 || !got[1].Time.After(got[0].Time) || !got[0].Time.After(t0) {
		t.Fatalf("last cut must keep the newest two in order: %+v", got)
	}
	if got := (Filter{}).Apply(recs); len(got) != 4 {
		t.Fatal("zero filter must match everything")
	}
}

// TestFlattenMetrics: the obs snapshot flattens to dotted numeric keys,
// with phase array elements labeled by name.
func TestFlattenMetrics(t *testing.T) {
	col := obs.New()
	col.Counter("engine.cache.hits").Add(7)
	col.Histogram("atpg.backtracks").Observe(100)
	col.Phase("screen").End()
	flat := FlattenMetrics(col.Snapshot())
	if flat["counters.engine.cache.hits"] != 7 {
		t.Fatalf("counter key missing: %v", flat)
	}
	if flat["histograms.atpg.backtracks.count"] != 1 {
		t.Fatalf("histogram count missing: %v", flat)
	}
	if _, ok := flat["phases.screen.wall_ns"]; !ok {
		t.Fatalf("phase not labeled by name: %v", flat)
	}
	if FlattenMetrics(nil) != nil {
		t.Fatal("nil snapshot must flatten to nil")
	}
}

// TestNewRecord: metrics flatten, extras merge over them (also without
// a snapshot), and a zero hash stays empty.
func TestNewRecord(t *testing.T) {
	col := obs.New()
	col.Counter("faultsim.detected").Add(3)
	r := NewRecord("s27", 0xabc, col.Snapshot(), map[string]float64{"coverage": 0.5})
	if r.Circuit != "s27" || r.Hash != "0000000000000abc" ||
		r.Metrics["counters.faultsim.detected"] != 3 || r.Metrics["coverage"] != 0.5 {
		t.Errorf("record = %+v", r)
	}
	bare := NewRecord("", 0, nil, map[string]float64{"coverage": 1})
	if bare.Hash != "" || len(bare.Metrics) != 1 || bare.Metrics["coverage"] != 1 {
		t.Errorf("snapshot-less record = %+v", bare)
	}
	if NewRecord("", 0, nil, nil).Metrics != nil {
		t.Error("a record with nothing to carry has a metric map")
	}
}

// TestFlattenLabelsArraysByCircuit: array elements take their key from
// a "circuit" (or "name") field, and only numeric leaves survive.
func TestFlattenLabelsArraysByCircuit(t *testing.T) {
	const doc = `{
  "note": "text leaves are ignored",
  "scale": 0.04,
  "flow": [
    {"circuit": "s9234", "build": {"ns_per_op": 1000000, "allocs_per_op": 1500}},
    {"circuit": "s38584", "build": {"ns_per_op": 30000000, "allocs_per_op": 9000}}
  ],
  "phases": [{"name": "screen", "wall_ns": 5}, {"wall_ns": 6}]
}`
	flat, err := flattenValue(json.RawMessage(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"scale":                           0.04,
		"flow.s9234.build.ns_per_op":      1000000,
		"flow.s9234.build.allocs_per_op":  1500,
		"flow.s38584.build.ns_per_op":     30000000,
		"flow.s38584.build.allocs_per_op": 9000,
		"phases.screen.wall_ns":           5,
		"phases.1.wall_ns":                6,
	}
	if len(flat) != len(want) {
		t.Errorf("flattened %d leaves, want %d: %v", len(flat), len(want), flat)
	}
	for k, v := range want {
		if got, ok := flat[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
}

func TestFlattenValue(t *testing.T) {
	type inner struct {
		Name string `json:"name"`
		N    int64  `json:"n"`
	}
	doc := struct {
		Wall  int64   `json:"wall_ns"`
		Items []inner `json:"items"`
	}{Wall: 42, Items: []inner{{Name: "screen", N: 7}}}
	m, err := flattenValue(doc)
	if err != nil {
		t.Fatal(err)
	}
	if m["wall_ns"] != 42 || m["items.screen.n"] != 7 {
		t.Fatalf("flattened = %v", m)
	}
}

func TestAppendNothingIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := Append(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("empty append must not create the file")
	}
}
