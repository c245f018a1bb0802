package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"specasan/internal/core"
	"specasan/internal/fuzzer"
	"specasan/internal/harness"
	"specasan/internal/scenario"
	"specasan/internal/workloads"
)

func TestMain(m *testing.M) {
	if err := loadRefs(); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// The metrics a run prints must be the ones BENCHMARK.json declares, with the
// same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	printed := func(defs []metricDef) map[string]string {
		out := map[string]string{}
		for _, d := range defs {
			out[d.name] = d.unit
		}
		return out
	}
	if got, want := printed(endToEnd), declared(doc.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics: printed %v, BENCHMARK.json declares %v", got, want)
	}
	if got, want := printed(perLayer), declared(doc.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics: printed %v, BENCHMARK.json declares %v", got, want)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, workloadNames())
	}
}

// A traced run's layer metrics are exactly the declared per-layer set, even
// when the workload reaches none of a layer's functions.
func TestLayerMetricsCoverDeclaredSet(t *testing.T) {
	m := newTracer().layerMetrics()
	m["trace.overhead_s"] = 0
	m["host.wall_s"] = 1
	m["host.sha256_mb_per_s"] = 1
	if _, err := formatResult(&outcome{attempted: 1, metrics: m}, perLayer); err != nil {
		t.Fatal(err)
	}
}

func runCellRef(t *testing.T, p poolEntry, mit core.Mitigation, opt harness.Options) cellRef {
	t.Helper()
	r, _, err := harness.RunCell(p.spec(), mit, opt)
	if err != nil {
		t.Fatal(err)
	}
	return refOf(r)
}

// The traced run recomposes cells from the layers' public functions; each
// recomposition must equal what the real entry point computes.
func TestRecomposedDetailedCellEqualsRunCell(t *testing.T) {
	p := detailedPARSEC[0] // a 4-core cell: coherence and core stepping
	want := runCellRef(t, p, core.SpecASan, sweepOptions(1, false))
	got, err := tracedDetailedCell(newTracer(), 0, p.spec(), core.SpecASan)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.diff(got); d != "" {
		t.Fatal(d)
	}
}

func TestRecomposedSampledCellEqualsRunCell(t *testing.T) {
	p := sampledPool[3]
	want := runCellRef(t, p, core.STT, sweepOptions(1, true))
	tr := newTracer()
	got, err := tracedSampledCell(tr, 0, p.spec(), core.STT)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.diff(got); d != "" {
		t.Fatal(d)
	}
	if n := len(tr.durations("cache.warm")); n != sampledWindows {
		t.Errorf("%d cache warms, want one per window (%d)", n, sampledWindows)
	}
}

// The serve replay's direct layer calls must reproduce the cell the server
// returned for the same document.
func TestReplayedServeCellEqualsServed(t *testing.T) {
	e := &env{seed: 1, seconds: time.Second, work: t.TempDir(), workers: 2}
	if err := os.MkdirAll(filepath.Join(e.work, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	job := drawServe(1)[0][0]
	si, err := startServe(e)
	if err != nil {
		t.Fatal(err)
	}
	body, err := si.submit(job.doc)
	si.stop()
	if err != nil {
		t.Fatal(err)
	}
	served, err := servedCell(body)
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Parse(job.doc, "job", "submitted")
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := scn.WorkloadSpecs()
	mits, _ := scn.MitigationList()
	r, _, err := harness.RunCell(specs[0], mits[0], harness.OptionsFromScenario(scn))
	if err != nil {
		t.Fatal(err)
	}
	if d := refOf(r).diff(served); d != "" {
		t.Fatal(d)
	}
}

func TestRecomposedFuzzBatchEqualsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("two fuzz batches")
	}
	const seed = 3
	runDir, tracedDir := t.TempDir(), t.TempDir()
	if _, err := fuzzer.Run(fuzzer.Options{Seed: seed, N: fuzzBatch, OutDir: runDir}); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	if _, err := tracedFuzz(tr, seed, 2, tracedDir); err != nil {
		t.Fatal(err)
	}
	want, err := corpusDigest(runDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := corpusDigest(tracedDir)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || want != refs.Fuzz["3"] {
		t.Fatalf("traced corpus %+v, fuzzer.Run %+v, pinned %+v", got, want, refs.Fuzz["3"])
	}
	if tr.counts["fuzzer.finds"] != float64(want.PoCs) {
		t.Errorf("%v finds, %d PoCs", tr.counts["fuzzer.finds"], want.PoCs)
	}
}

// withRefs replaces the pins with a freshly decoded copy that modify edits,
// until the test ends.
func withRefs(t *testing.T, modify func(r *references)) {
	t.Helper()
	var fresh references
	if err := json.Unmarshal(refsJSON, &fresh); err != nil {
		t.Fatal(err)
	}
	modify(&fresh)
	saved := refs
	refs = fresh
	t.Cleanup(func() { refs = saved })
}

// A deliberately wrong reference must show up as failed operations.
func TestWrongReferenceFails(t *testing.T) {
	e := &env{seed: 7, seconds: time.Nanosecond, work: t.TempDir(), workers: 2}
	first := drawDetailed(e.seed)[0].spec().Name + "|" + core.Unsafe.String()
	withRefs(t, func(r *references) {
		c := r.Detailed[first]
		c.Cycles++
		r.Detailed[first] = c
	})
	out, err := runDetailed(e)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 || out.attempted != len(sweepCells(mustPrepare(t, e.seed))) {
		t.Fatalf("failed %d of %d, want exactly the tampered cell", out.failed, out.attempted)
	}
	line, err := formatResult(out, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var res struct{ Correct bool }
	if err := json.Unmarshal([]byte(line), &res); err != nil || res.Correct {
		t.Fatalf("result %s: want correct=false", line)
	}
}

func TestWrongTable1PinFails(t *testing.T) {
	matrix, err := table1(nil)
	if err != nil {
		t.Fatal(err)
	}
	attack := ""
	for a := range matrix {
		attack = a
		break
	}
	withRefs(t, func(r *references) { r.Table1[attack][0] += "?" })
	out := &outcome{}
	checkSecurity(out, fuzzSeeds[0], matrix, refs.Fuzz["1"])
	if out.failed != 1 {
		t.Fatalf("failed %d, want 1", out.failed)
	}
}

func mustPrepare(t *testing.T, seed uint64) []*workloads.Spec {
	t.Helper()
	specs, err := prepareSweep(seed, false)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// The serve stream holds what the workload promises: per session a cold
// first job and the pinned cold count, repeats of earlier cold jobs of the
// same session, cold cells shared with no other job, at least 200 repeats,
// and the same stream for the same seed.
func TestServeStream(t *testing.T) {
	sessions := drawServe(11)
	if !reflect.DeepEqual(sessions, drawServe(11)) {
		t.Fatal("the same seed gave two streams")
	}
	cells := map[string]bool{}
	repeats := 0
	for s, jobs := range sessions {
		cold := 0
		for j, job := range jobs {
			if job.repeatOf < 0 {
				cold++
				scn, err := scenario.Parse(job.doc, "job", "submitted")
				if err != nil {
					t.Fatal(err)
				}
				k := scn.ResultHash() + "|" + job.kernel + "|" + job.mit.String()
				if cells[k] {
					t.Errorf("session %d job %d: cold cell %s already served", s, j, k)
				}
				cells[k] = true
				continue
			}
			repeats++
			if job.repeatOf >= j || jobs[job.repeatOf].repeatOf >= 0 {
				t.Errorf("session %d job %d repeats job %d, not an earlier cold job", s, j, job.repeatOf)
			}
		}
		if jobs[0].repeatOf >= 0 || cold != serveColdPerSession {
			t.Errorf("session %d: %d cold jobs, first cold %v", s, cold, jobs[0].repeatOf < 0)
		}
	}
	if repeats < 200 {
		t.Errorf("%d cached jobs, want at least 200", repeats)
	}
}
