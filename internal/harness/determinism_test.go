package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/obs"
	"specasan/internal/workloads"
)

// sweepFingerprint flattens everything observable about a sweep — results,
// errors, and the verbose log bytes — into one comparable string.
func sweepFingerprint(sw *Sweep, log *bytes.Buffer) string {
	var b bytes.Buffer
	for _, bench := range sw.Benchmarks {
		for _, mit := range sw.Mitigations {
			if err := sw.Errors[bench][mit]; err != nil {
				fmt.Fprintf(&b, "%s/%v: err=%v\n", bench, mit, err)
				continue
			}
			r := sw.Results[bench][mit]
			fmt.Fprintf(&b, "%s/%v: cycles=%d committed=%d restricted=%d\n",
				bench, mit, r.Cycles, r.Committed, r.Restricted)
		}
	}
	fmt.Fprintf(&b, "--- log ---\n%s", log.String())
	return b.String()
}

// TestRunSweepParallelDeterminism is the parallel-harness contract: for the
// same inputs, RunSweep with a worker pool must produce results, errors, and
// verbose log output byte-identical to the serial path.
func TestRunSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	specs := []*workloads.Spec{
		workloads.ByName("508.namd_r"),
		workloads.ByName("505.mcf_r"),
	}
	for _, s := range specs {
		if s == nil {
			t.Fatal("workload missing")
		}
	}
	mits := []core.Mitigation{core.Unsafe, core.Fence, core.SpecASan}

	run := func(workers int) string {
		var log bytes.Buffer
		opt := DefaultOptions()
		opt.Scale, opt.MaxCycles, opt.Workers = 0.02, 50_000_000, workers
		opt.Verbose, opt.Log = true, &log
		sw, err := RunSweep(specs, mits, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sweepFingerprint(sw, &log)
	}

	serial := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != serial {
			t.Errorf("workers=%d diverges from serial:\n-- serial --\n%s\n-- workers=%d --\n%s",
				workers, serial, workers, got)
		}
	}
}

// TestRunSweepMetricsAndTraceDeterminism extends the contract to the
// observability layer: the JSONL metrics stream and a Chrome trace of one
// chosen cell must be byte-identical for any worker count.
func TestRunSweepMetricsAndTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	specs := []*workloads.Spec{
		workloads.ByName("508.namd_r"),
		workloads.ByName("505.mcf_r"),
	}
	mits := []core.Mitigation{core.Unsafe, core.SpecASan}

	run := func(workers int) (string, string) {
		var metrics bytes.Buffer
		var tr *obs.Tracer
		opt := DefaultOptions()
		opt.Scale, opt.MaxCycles, opt.Workers = 0.02, 50_000_000, workers
		opt.Metrics = &metrics
		opt.Attach = func(bench string, mit core.Mitigation, m *cpu.Machine) {
			if bench == "505.mcf_r" && mit == core.SpecASan {
				tr = obs.NewTracer(len(m.Cores), 0)
				m.AttachObs(tr, nil)
			}
		}
		if _, err := RunSweep(specs, mits, opt); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if tr == nil {
			t.Fatalf("workers=%d: traced cell never ran", workers)
		}
		var trace bytes.Buffer
		if err := obs.WriteChromeTrace(&trace, tr); err != nil {
			t.Fatal(err)
		}
		return metrics.String(), trace.String()
	}

	serialMetrics, serialTrace := run(1)
	if serialMetrics == "" {
		t.Fatal("metrics stream is empty")
	}
	// One JSONL line per cell, in cell order.
	lines := strings.Split(strings.TrimRight(serialMetrics, "\n"), "\n")
	if len(lines) != len(specs)*len(mits) {
		t.Fatalf("%d metrics lines, want %d", len(lines), len(specs)*len(mits))
	}
	var first obs.MetricsRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Schema != obs.MetricsSchema || first.Bench != "508.namd_r" {
		t.Fatalf("first metrics line = %+v", first)
	}
	for _, workers := range []int{2, 4} {
		gotMetrics, gotTrace := run(workers)
		if gotMetrics != serialMetrics {
			t.Errorf("workers=%d: metrics stream diverges from serial", workers)
		}
		if gotTrace != serialTrace {
			t.Errorf("workers=%d: chrome trace diverges from serial", workers)
		}
	}
}
