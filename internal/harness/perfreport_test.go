package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestPerfReportRoundTrip pins the BENCH_sim.json schema: a report must
// survive marshal → unmarshal → re-marshal byte-identically, so the tracked
// baseline file stays stable under version control.
func TestPerfReportRoundTrip(t *testing.T) {
	rep := &PerfReport{
		Schema:      PerfSchema,
		GeneratedAt: "2026-08-05T00:00:00Z",
		GoMaxProcs:  8,
		SingleCore: SingleCorePerf{
			Workload: "508.namd_r", Mitigation: "Unsafe",
			Steps: 500000, Committed: 700000,
			HostNsPerCycle: 1184.886268, SimInstsPerSec: 1.2e6, SimMIPS: 1.2,
			AllocsPerStep: 0.0001, AllocsPerCommitted: 0.00007,
		},
		Sweep: SweepPerf{
			Workloads: 10, Mitigations: 5, Cells: 50, Scale: 1,
			Workers: 8, WallSeconds: 12.5, SerialWallSeconds: 80.1, Speedup: 6.4,
		},
		Baseline:          ReferenceBaseline(),
		SingleCoreSpeedup: 3.52,
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_sim.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("report must end in a newline")
	}
	var back PerfReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep, back) {
		t.Fatalf("report did not survive a JSON round trip:\n%+v\n%+v", rep, back)
	}
	if err := back.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-marshal is not byte-identical")
	}
}

// TestLoadPerfHistoryAcceptsOldSchemas pins the v5 upgrade path: a
// pre-existing v2/v3/v4 report's history must load verbatim so the
// cross-PR trajectory — and the hash-keyed regression gate comparing its
// last two entries — survives the schema bump.
func TestLoadPerfHistoryAcceptsOldSchemas(t *testing.T) {
	for _, schema := range []string{perfSchemaV2, perfSchemaV3, perfSchemaV4} {
		old := &PerfReport{
			Schema:      schema,
			GeneratedAt: "2026-08-01T00:00:00Z",
			History: []PerfHistoryEntry{
				{GeneratedAt: "2026-07-01T00:00:00Z", HostNsPerCycle: 200, SimMIPS: 5, ScenarioHash: "abc123"},
				{GeneratedAt: "2026-08-01T00:00:00Z", HostNsPerCycle: 180, SimMIPS: 6, ScenarioHash: "abc123"},
			},
		}
		path := filepath.Join(t.TempDir(), "BENCH_sim.json")
		if err := old.WriteJSON(path); err != nil {
			t.Fatal(err)
		}
		hist, err := LoadPerfHistory(path)
		if err != nil {
			t.Fatalf("%s: %v", schema, err)
		}
		if !reflect.DeepEqual(hist, old.History) {
			t.Fatalf("%s history did not load verbatim:\n%+v\n%+v", schema, hist, old.History)
		}
		// The gate still compares across the bump: a v5 report appending to
		// this history must find the older entry as its reference.
		cur := &PerfReport{Schema: PerfSchema, GeneratedAt: "2026-08-08T00:00:00Z",
			ScenarioHash: "abc123",
			SingleCore:   SingleCorePerf{HostNsPerCycle: 170, SimMIPS: 6.4}}
		if err := cur.AppendHistory(path, "v5 entry"); err != nil {
			t.Fatal(err)
		}
		if n := len(cur.History); n != 3 {
			t.Fatalf("history length = %d, want 3", n)
		}
		notice, regressed := cur.RegressionVsPrevious()
		if regressed {
			t.Fatalf("faster run flagged as regression: %s", notice)
		}
	}
}

// TestBenchSimJSONParses validates the tracked baseline file itself against
// the schema: it must parse as a PerfReport with the current schema tag and
// carry a plausible single-core measurement.
func TestBenchSimJSONParses(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Skipf("no tracked baseline: %v", err)
	}
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_sim.json does not parse: %v", err)
	}
	if rep.Schema != PerfSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, PerfSchema)
	}
	if rep.SingleCore.HostNsPerCycle <= 0 || rep.SingleCore.Committed == 0 {
		t.Fatalf("implausible single-core measurement: %+v", rep.SingleCore)
	}
	if rep.Baseline.HostNsPerCycle <= 0 {
		t.Fatalf("missing baseline: %+v", rep.Baseline)
	}
}

// TestLoadPerfHistoryCheckedInFile loads the tracked BENCH_sim.json through
// the history path a -perf regeneration takes. Its v4/v5 entries carry the
// multicore fields of a leg that is no longer measured (and the file's
// top-level multicore block is no longer part of PerfReport); both must
// still load, and the entries must keep their recorded multicore figures.
func TestLoadPerfHistoryCheckedInFile(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_sim.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no tracked baseline: %v", err)
	}
	hist, err := LoadPerfHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) == 0 {
		t.Fatal("checked-in history is empty")
	}
	multicore := 0
	for _, e := range hist {
		if e.MulticoreCores > 0 && e.MulticoreSpeedup > 0 {
			multicore++
		}
	}
	if multicore == 0 {
		t.Fatal("no history entry kept its multicore figures")
	}
	cur := &PerfReport{Schema: PerfSchema, GeneratedAt: "2026-10-01T00:00:00Z",
		SingleCore: SingleCorePerf{HostNsPerCycle: 1000, SimMIPS: 1}}
	if err := cur.AppendHistory(path, "next entry"); err != nil {
		t.Fatal(err)
	}
	if len(cur.History) != len(hist)+1 {
		t.Fatalf("history length = %d, want %d", len(cur.History), len(hist)+1)
	}
}
