package harness

import (
	"bytes"
	"strings"
	"testing"

	"specasan/internal/core"
	"specasan/internal/workloads"
)

// sampleTolerancePct is the stated accuracy contract of sampled simulation
// at tier-1 scale: the extrapolated IPC stays within this percentage of the
// full-walk IPC. Committed counts and program output carry no tolerance at
// all — they are exact by construction.
const sampleTolerancePct = 25.0

func ipcOf(r *PerfResult) float64 { return float64(r.Committed) / float64(r.Cycles) }

func requireIPCWithin(t *testing.T, full, sampled *PerfResult) {
	t.Helper()
	fi, si := ipcOf(full), ipcOf(sampled)
	delta := (si - fi) / fi * 100
	if delta < 0 {
		delta = -delta
	}
	if delta > sampleTolerancePct {
		t.Fatalf("sampled IPC %.3f vs full %.3f: %.1f%% off (tolerance %.0f%%)",
			si, fi, delta, sampleTolerancePct)
	}
	t.Logf("IPC full=%.3f sampled=%.3f (%.1f%% delta)", fi, si, delta)
}

// TestSampledTailMatchesFull: fast-forward half the run functionally, finish
// detailed. Committed and output must be exact; IPC within the tolerance.
func TestSampledTailMatchesFull(t *testing.T) {
	spec := workloads.ByName("508.namd_r")
	for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
		opt := smallOpts()
		opt.Scale = 0.2
		full, err := RunBenchmark(spec, mit, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.FastForwardInsts = full.Committed / 2
		sampled, err := RunBenchmark(spec, mit, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sampled.Sampled == nil || sampled.Sampled.Windows != 1 {
			t.Fatalf("%v: expected a tail-mode sampled result, got %+v", mit, sampled.Sampled)
		}
		if sampled.Committed != full.Committed {
			t.Fatalf("%v: committed %d != full %d (must be exact)", mit, sampled.Committed, full.Committed)
		}
		if sampled.Output != full.Output {
			t.Fatalf("%v: output %q != full %q (must be exact)", mit, sampled.Output, full.Output)
		}
		requireIPCWithin(t, full, sampled)
		if mit == core.SpecASan && full.Restricted > 0 && sampled.Restricted == 0 {
			t.Fatalf("%v: sampled run lost the restricted estimate", mit)
		}
	}
}

// TestSampledWindowsMatchFull: windowed mode's committed total and output
// come from a full functional walk, so they are exact; cycles extrapolate
// from the pooled window IPC.
func TestSampledWindowsMatchFull(t *testing.T) {
	spec := workloads.ByName("505.mcf_r")
	for _, mit := range []core.Mitigation{core.Unsafe, core.SpecASan} {
		opt := smallOpts()
		opt.Scale = 0.2
		full, err := RunBenchmark(spec, mit, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.SampleWindows = 4
		opt.SampleWindowInsts = full.Committed / 20
		sampled, err := RunBenchmark(spec, mit, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sampled.Sampled == nil || sampled.Sampled.Windows != 4 {
			t.Fatalf("%v: expected 4 windows, got %+v", mit, sampled.Sampled)
		}
		if sampled.Committed != full.Committed {
			t.Fatalf("%v: committed %d != full %d (must be exact)", mit, sampled.Committed, full.Committed)
		}
		if sampled.Output != full.Output {
			t.Fatalf("%v: output %q != full %q (must be exact)", mit, sampled.Output, full.Output)
		}
		requireIPCWithin(t, full, sampled)
	}
}

// TestSampledTooShortFallsBack: a fast-forward budget past the program's end
// must produce exactly the full run, with no sampling annotation.
func TestSampledTooShortFallsBack(t *testing.T) {
	spec := workloads.ByName("508.namd_r")
	opt := smallOpts()
	full, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.FastForwardInsts = 1 << 40
	r, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sampled != nil {
		t.Fatalf("short run must fall back to fully detailed, got %+v", r.Sampled)
	}
	if r.Cycles != full.Cycles || r.Committed != full.Committed || r.Output != full.Output {
		t.Fatalf("fallback differs from full run: %+v vs %+v", r, full)
	}
}

// TestSampledMultiThreadFallsBack: the transplant seam is single-core; a
// multi-threaded cell must run fully detailed and bit-identically.
func TestSampledMultiThreadFallsBack(t *testing.T) {
	spec := workloads.ByName("canneal")
	if spec == nil || spec.Threads <= 1 {
		t.Fatal("need a multi-threaded workload")
	}
	opt := smallOpts()
	full, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.FastForwardInsts = 100
	r, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sampled != nil {
		t.Fatal("multi-threaded cell must not sample")
	}
	if r.Cycles != full.Cycles || r.Committed != full.Committed {
		t.Fatalf("fallback differs from full run: %+v vs %+v", r, full)
	}
}

// faultySpec runs ~15k instructions, then jumps to unmapped code. Faults the
// golden interpreter sees during a functional region must surface as cell
// faults, exactly like the detailed path would report them.
var faultySpec = &workloads.Spec{
	Name:    "faulty-loop",
	Threads: 1,
	Source: `
    MOV  X1, #5000
loop:
    SUB  X1, X1, #1
    ADD  X2, X2, #1
    CBNZ X1, loop
    MOV  X7, #0x9000
    BR   X7
    SVC  #0`,
}

func TestSampledFaultDuringFastForward(t *testing.T) {
	opt := smallOpts()
	opt.FastForwardInsts = 1 << 20 // past the fault point
	_, err := RunBenchmark(faultySpec, core.Unsafe, opt)
	if err == nil || !strings.Contains(err.Error(), "faulted") {
		t.Fatalf("want a fault error from the functional region, got %v", err)
	}

	opt.FastForwardInsts = 0
	opt.SampleWindows = 4
	opt.SampleWindowInsts = 1000
	_, err = RunBenchmark(faultySpec, core.Unsafe, opt)
	if err == nil || !strings.Contains(err.Error(), "faulted") {
		t.Fatalf("want a fault error from the functional walk, got %v", err)
	}
}

// TestSampledSweepDeterministicAcrossWorkers: the sampling path inherits the
// sweep's determinism contract, and sharing a window plan changes nothing a
// cell reports. Every cell of a windowed sweep (three untagged mitigations
// share each program's plan), at any worker count, has the result, log line
// and metrics record of the same cell run alone on a private plan.
func TestSampledSweepDeterministicAcrossWorkers(t *testing.T) {
	specs := []*workloads.Spec{
		workloads.ByName("508.namd_r"),
		workloads.ByName("505.mcf_r"),
	}
	mits := []core.Mitigation{core.Unsafe, core.Fence, core.STT, core.SpecASan}
	opt := windowedOpts()
	opt.Verbose = true
	want, wantLog, wantMet := standaloneCells(specs, mits, opt)
	for _, w := range []int{1, 2, 4} {
		var log, met bytes.Buffer
		opt.Log, opt.Metrics, opt.Workers = &log, &met, w
		pm := newPlanMemo()
		sw, err := runSweep(specs, mits, opt, pm)
		if err != nil {
			t.Fatal(err)
		}
		if got := sweepLines(sw); got != want {
			t.Errorf("workers=%d: sweep results differ from standalone cells:\n%s\n--- standalone ---\n%s", w, got, want)
		}
		if log.String() != wantLog {
			t.Errorf("workers=%d: sweep log differs from standalone cells:\n%s\n--- standalone ---\n%s", w, log.String(), wantLog)
		}
		if met.String() != wantMet {
			t.Errorf("workers=%d: sweep metrics differ from standalone cells", w)
		}
		if len(pm.entries) != 0 {
			t.Errorf("workers=%d: %d plans left in the memo", w, len(pm.entries))
		}
	}
}

// TestSampledCellRoundTripsThroughStore: a sampled result survives the cell
// cache with its sampling annotation intact.
func TestSampledCellRoundTripsThroughStore(t *testing.T) {
	opt := smallOpts()
	opt.Scale = 0.2
	spec := workloads.ByName("508.namd_r")
	full, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.FastForwardInsts = full.Committed / 2
	r, err := RunBenchmark(spec, core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	back, err := CellResultOf(r).PerfResult()
	if err != nil {
		t.Fatal(err)
	}
	if back.Sampled == nil || *back.Sampled != *r.Sampled {
		t.Fatalf("sampling annotation lost in the cell round trip: %+v vs %+v", back.Sampled, r.Sampled)
	}
	if back.Cycles != r.Cycles || back.Committed != r.Committed || back.Output != r.Output {
		t.Fatal("cell round trip changed the result")
	}
}
