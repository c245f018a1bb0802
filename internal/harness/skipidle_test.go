package harness

import (
	"bytes"
	"fmt"
	"testing"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/obs"
	"specasan/internal/workloads"
)

// TestSkipIdleSweepByteIdentical is the exactness contract of event-driven
// idle-cycle skipping: a sweep with skipping on must be byte-identical to
// the same sweep walking every cycle — results, the full per-cell counter
// sets (including the analytically-accounted stall counters), the verbose
// log, the JSONL metrics stream, and a Chrome trace of a cell.
func TestSkipIdleSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	specs := []*workloads.Spec{
		workloads.ByName("508.namd_r"), // compute-bound
		workloads.ByName("505.mcf_r"),  // memory-bound: the skip-heavy case
		workloads.ByName("557.xz_r"),
	}
	for _, s := range specs {
		if s == nil {
			t.Fatal("workload missing")
		}
	}
	mits := []core.Mitigation{core.Unsafe, core.Fence, core.SpecASan}

	run := func(noSkip bool) string {
		var log, metrics bytes.Buffer
		var tr *obs.Tracer
		opt := DefaultOptions()
		opt.Scale, opt.MaxCycles, opt.SkipIdle = 0.02, 50_000_000, !noSkip
		opt.Verbose, opt.Log, opt.Metrics = true, &log, &metrics
		opt.Attach = func(bench string, mit core.Mitigation, m *cpu.Machine) {
			if bench == "505.mcf_r" && mit == core.SpecASan {
				tr = obs.NewTracer(len(m.Cores), 0)
				m.AttachObs(tr, nil)
			}
		}
		sw, err := RunSweep(specs, mits, opt)
		if err != nil {
			t.Fatalf("noSkip=%v: %v", noSkip, err)
		}
		if tr == nil {
			t.Fatalf("noSkip=%v: traced cell never ran", noSkip)
		}
		var b bytes.Buffer
		b.WriteString(sweepFingerprint(sw, &log))
		for _, bench := range sw.Benchmarks {
			for _, mit := range sw.Mitigations {
				if r := sw.Results[bench][mit]; r != nil {
					fmt.Fprintf(&b, "%s/%v stats: %s\n", bench, mit, r.Stats)
				}
			}
		}
		fmt.Fprintf(&b, "--- metrics ---\n%s", metrics.String())
		if err := obs.WriteChromeTrace(&b, tr); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	withSkip, withoutSkip := run(false), run(true)
	if withSkip != withoutSkip {
		t.Errorf("skip-idle changes observable output:\n-- skip on --\n%.4000s\n-- skip off --\n%.4000s",
			withSkip, withoutSkip)
	}
}
