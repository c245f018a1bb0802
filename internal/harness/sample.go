package harness

// Fast-forward sampled simulation (SMARTS-style): most of a run executes on
// the functional golden interpreter (hundreds of MIPS, exact architectural
// semantics), and only sampled regions pay cycle-accurate cost. The seam is
// the architectural state transplant (golden.Interp.Snapshot ->
// cpu.NewMachineAt), which is bit-exact by construction and by test
// (internal/cpu transplant tests), so sampling changes *when* detailed cost
// is paid, never what the program computes: Committed and Output are exact,
// Cycles (and Restricted) are estimates extrapolated from the detailed
// regions' post-warmup IPC.
//
// Two modes share the machinery:
//
//   - Tail mode (FastForwardInsts > 0, SampleWindows <= 1): fast-forward N
//     instructions functionally, transplant, warm the cold micro-architecture
//     for WarmupCycles, run the rest detailed. The fast-forwarded prefix's
//     cycles are estimated at the measured IPC.
//   - Windowed mode (SampleWindows > 1): a full functional walk fixes the
//     run's total instruction count and exact output; K evenly-spaced windows
//     of SampleWindowInsts instructions each are then simulated in detail
//     (one progressive functional walk, one transplant per window), and
//     whole-run cycles are extrapolated from the pooled post-warmup IPC.
//
// Fallbacks keep the mode safe to leave enabled: multi-threaded cells (the
// transplant seam is single-core) and programs shorter than the fast-forward
// budget run fully detailed; a golden-visible fault during a functional
// region is reported as a cell fault, mirroring the full path.

import (
	"errors"
	"fmt"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/obs"
	"specasan/internal/stats"
	"specasan/internal/workloads"
)

// errSampleTooShort signals that the program ends before the sampling plan's
// functional region — RunBenchmark falls back to a full detailed run.
var errSampleTooShort = errors.New("program too short to sample")

// warmTouches sizes the functional touch ring replayed into the transplanted
// machine's cache hierarchy. Detailed-cycle warmup alone cannot heal a cold
// hierarchy (the warmed lines are evicted by the same miss storm being
// warmed away); replaying the last ~32k functional touches reconstructs the
// working set the skipped instructions left resident, which is what makes
// the sampled IPC track the full-walk IPC.
const warmTouches = 1 << 15

// config resolves the effective machine configuration.
func (o *Options) config() core.Config {
	if o.Config != nil {
		return *o.Config
	}
	return core.DefaultConfig()
}

// newGolden builds a golden interpreter matching the detailed machine's
// committed semantics (same MTE mode, same IRG tag seed).
func newGolden(prog *asm.Program, mit core.Mitigation) *golden.Interp {
	ip := golden.New(prog)
	ip.MTEOn = mit.MTEEnabled()
	ip.TagSeed = cpu.TagSeedBase
	return ip
}

// runSampled dispatches a single-core cell to the selected sampling mode.
func runSampled(spec *workloads.Spec, mit core.Mitigation, opt Options) (*PerfResult, error) {
	prog, err := buildSpec(spec, mit, opt)
	if err != nil {
		return nil, err
	}
	if opt.SampleWindows > 1 {
		return runSampledWindows(spec, mit, opt, prog)
	}
	return runSampledTail(spec, mit, opt, prog)
}

// newSampledMachine transplants a golden snapshot into a fresh single-core
// detailed machine and applies the run options' instrumentation hooks.
func newSampledMachine(spec *workloads.Spec, mit core.Mitigation, opt Options,
	prog *asm.Program, st *golden.State, met *obs.Metrics) (*cpu.Machine, error) {
	cfg := opt.config()
	cfg.Cores = 1
	m, err := cpu.NewMachineAt(cfg, mit, prog, st)
	if err != nil {
		return nil, err
	}
	m.SkipIdle = !opt.NoSkipIdle
	if met != nil {
		m.AttachObs(nil, met)
	}
	if opt.Attach != nil {
		opt.Attach(spec.Name, mit, m)
	}
	return m, nil
}

// ffFaultErr reports a golden-visible fault hit during a functional region.
// The full detailed run would commit the same fault (the interpreter defines
// committed-path semantics), so it is a cell fault, not a sampling artefact.
func ffFaultErr(spec *workloads.Spec, mit core.Mitigation, res *golden.Result) error {
	return fmt.Errorf("%s under %v faulted at %#x during functional fast-forward (%v)",
		spec.Name, mit, res.PC, res.Reason)
}

// sampledRunErr converts a detailed-region RunResult into the cell errors
// the full path produces. A warmup leg (final=false) that merely ran out its
// cycle slice is the expected case, not a timeout.
func sampledRunErr(spec *workloads.Spec, mit core.Mitigation, m *cpu.Machine,
	res *cpu.RunResult, final bool) error {
	if res.Err != nil {
		return fmt.Errorf("%s under %v: %w", spec.Name, mit, res.Err)
	}
	if res.Faulted {
		return fmt.Errorf("%s under %v faulted at %#x (core %d)",
			spec.Name, mit, m.Core(res.FaultCore).FaultPC, res.FaultCore)
	}
	if final && res.TimedOut {
		return fmt.Errorf("%s under %v: %w after %d cycles (cores %v still running)",
			spec.Name, mit, ErrTimedOut, res.Cycles, res.TimedOutCores())
	}
	return nil
}

// functionalBudget bounds a functional walk in instructions, derived from
// the detailed cycle budget so escalated-budget retries raise both: a
// detailed run can commit at most a few instructions per cycle, so a walk
// exceeding 8*MaxCycles instructions would have timed out fully detailed too.
func functionalBudget(maxCycles uint64) uint64 {
	const width = 8
	if maxCycles > ^uint64(0)/width {
		return ^uint64(0)
	}
	return maxCycles * width
}

// emitSampled writes the cell's metrics record, annotated with the
// functional/detailed split.
func emitSampled(spec *workloads.Spec, mit core.Mitigation, opt Options,
	met *obs.Metrics, cycles, committed uint64, sampled *obs.SampledRegions) error {
	if met == nil {
		return nil
	}
	rec := met.Record(spec.Name, mit.String(), cycles, committed)
	rec.ScenarioHash = opt.ScenarioHash
	rec.Sampled = sampled
	if err := obs.WriteMetricsLine(opt.Metrics, rec); err != nil {
		return fmt.Errorf("%s under %v: writing metrics: %w", spec.Name, mit, err)
	}
	return nil
}

// runSampledTail is tail mode: functional prefix, one transplant, detailed
// remainder.
func runSampledTail(spec *workloads.Spec, mit core.Mitigation, opt Options,
	prog *asm.Program) (*PerfResult, error) {
	ff := opt.FastForwardInsts
	ip := newGolden(prog, mit)
	ip.Touch = golden.NewTouchRing(warmTouches)
	gres := ip.Run(ff)
	switch gres.Reason {
	case golden.StopMaxInsts: // reached the fast-forward point
	case golden.StopExit:
		return nil, errSampleTooShort
	default:
		return nil, ffFaultErr(spec, mit, gres)
	}

	var met *obs.Metrics
	if opt.Metrics != nil {
		met = obs.NewMetrics(1)
	}
	m, err := newSampledMachine(spec, mit, opt, prog, ip.Snapshot(), met)
	if err != nil {
		return nil, err
	}
	m.WarmCaches(ip.Touch)

	// Warm the remaining cold micro-architecture (predictors, TSH), then
	// baseline the counters the IPC estimate uses.
	warm := min(opt.warmup(), opt.MaxCycles)
	if err := sampledRunErr(spec, mit, m, m.Run(warm), false); err != nil {
		return nil, err
	}
	baseCycles, baseCom := m.Cycle(), m.Core(0).Committed()

	res := m.Run(opt.MaxCycles)
	if err := sampledRunErr(spec, mit, m, res, true); err != nil {
		return nil, err
	}

	detCycles, detCom := m.Cycle(), res.Committed
	mCycles, mCom := detCycles-baseCycles, detCom-baseCom
	excluded := baseCycles
	if mCycles == 0 || mCom == 0 {
		// The whole remainder fit inside the warmup budget; measure it whole.
		mCycles, mCom, excluded = detCycles, detCom, 0
	}
	ipc := float64(mCom) / float64(mCycles)
	cycles := uint64(float64(ff)/ipc+0.5) + detCycles
	committed := ff + detCom
	restricted := res.Stats.Get("restricted_commits")
	if detCom > 0 {
		restricted = uint64(float64(restricted)*float64(committed)/float64(detCom) + 0.5)
	}
	sampled := &obs.SampledRegions{
		FunctionalInsts: ff,
		DetailedInsts:   detCom,
		DetailedCycles:  detCycles,
		WarmupCycles:    excluded,
		Windows:         1,
	}
	set := res.Stats
	set.Set("sampled_ff_insts", ff)
	set.Set("sampled_detailed_cycles", detCycles)
	set.Set("sampled_warmup_cycles", excluded)
	opt.logf("  %-18s %-12s sampled ff=%d cycles~%-9d ipc=%.2f restricted~%d",
		spec.Name, mit, ff, cycles, float64(committed)/float64(max(cycles, 1)), restricted)
	if err := emitSampled(spec, mit, opt, met, cycles, committed, sampled); err != nil {
		return nil, err
	}
	return &PerfResult{
		Benchmark:  spec.Name,
		Mitigation: mit,
		Cycles:     cycles,
		Committed:  committed,
		Restricted: restricted,
		Output:     string(m.Core(0).Output),
		Stats:      set,
		Sampled:    sampled,
	}, nil
}

// runSampledWindows is windowed mode: a full functional walk for the exact
// totals, then K evenly-spaced detailed windows pooled into one IPC estimate.
func runSampledWindows(spec *workloads.Spec, mit core.Mitigation, opt Options,
	prog *asm.Program) (*PerfResult, error) {
	k := opt.SampleWindows
	winInsts := opt.SampleWindowInsts

	// Pass 1: total instruction count and exact output.
	walk := newGolden(prog, mit)
	fres := walk.Run(functionalBudget(opt.MaxCycles))
	switch fres.Reason {
	case golden.StopExit:
	case golden.StopMaxInsts:
		return nil, fmt.Errorf("%s under %v: functional walk: %w after %d instructions",
			spec.Name, mit, ErrTimedOut, fres.Insts)
	default:
		return nil, ffFaultErr(spec, mit, fres)
	}
	total := fres.Insts
	ff := opt.FastForwardInsts
	if ff >= total {
		return nil, errSampleTooShort
	}
	span := total - ff
	starts := make([]uint64, 0, k)
	for i := 0; i < k; i++ {
		s := ff + span*uint64(i)/uint64(k)
		if n := len(starts); n > 0 && s <= starts[n-1] {
			continue // span smaller than the window count: drop duplicates
		}
		starts = append(starts, s)
	}

	var met *obs.Metrics
	if opt.Metrics != nil {
		met = obs.NewMetrics(1)
	}

	// Pass 2: one progressive functional walk; transplant at each start. The
	// walk's touch ring warms each window's caches with the working set live
	// at that window's start.
	ip := newGolden(prog, mit)
	ip.Touch = golden.NewTouchRing(warmTouches)
	var cur uint64
	pool := stats.NewSet("machine")
	var sumCycles, sumCom, sumDetCycles, sumDetCom uint64
	warm := min(opt.warmup(), opt.MaxCycles)
	for _, s := range starts {
		if s > cur {
			g := ip.Run(s - cur)
			if g.Reason != golden.StopMaxInsts {
				// Pass 1 proved the walk runs `total` instructions cleanly
				// and s < total, so anything else is an engine bug.
				return nil, fmt.Errorf("%s under %v: functional walk stopped early at %d insts (%v)",
					spec.Name, mit, cur+g.Insts, g.Reason)
			}
			cur = s
		}
		m, err := newSampledMachine(spec, mit, opt, prog, ip.Snapshot(), met)
		if err != nil {
			return nil, err
		}
		m.WarmCaches(ip.Touch)
		if err := sampledRunErr(spec, mit, m, m.Run(warm), false); err != nil {
			return nil, err
		}
		baseCycles, baseCom := m.Cycle(), m.Core(0).Committed()
		res := m.RunUntilCommitted(baseCom+winInsts, opt.MaxCycles)
		if err := sampledRunErr(spec, mit, m, res, true); err != nil {
			return nil, err
		}
		detCycles, detCom := m.Cycle(), res.Committed
		mCycles, mCom := detCycles-baseCycles, detCom-baseCom
		if mCycles == 0 || mCom == 0 {
			mCycles, mCom = detCycles, detCom
		}
		sumCycles += mCycles
		sumCom += mCom
		sumDetCycles += detCycles
		sumDetCom += detCom
		pool.Merge(res.Stats)
	}
	if sumCycles == 0 || sumCom == 0 {
		return nil, errSampleTooShort
	}
	ipc := float64(sumCom) / float64(sumCycles)
	cycles := uint64(float64(total)/ipc + 0.5)
	restricted := uint64(float64(pool.Get("restricted_commits"))*float64(total)/
		float64(sumDetCom) + 0.5)
	sampled := &obs.SampledRegions{
		FunctionalInsts: total - min(total, sumDetCom),
		DetailedInsts:   sumDetCom,
		DetailedCycles:  sumDetCycles,
		WarmupCycles:    warm,
		Windows:         len(starts),
	}
	pool.Set("sampled_detailed_cycles", sumDetCycles)
	pool.Set("sampled_warmup_cycles", warm)
	pool.Set("sampled_windows", uint64(len(starts)))
	opt.logf("  %-18s %-12s sampled windows=%d cycles~%-9d ipc=%.2f restricted~%d",
		spec.Name, mit, len(starts), cycles, ipc, restricted)
	if err := emitSampled(spec, mit, opt, met, cycles, total, sampled); err != nil {
		return nil, err
	}
	return &PerfResult{
		Benchmark:  spec.Name,
		Mitigation: mit,
		Cycles:     cycles,
		Committed:  total,
		Restricted: restricted,
		Output:     string(fres.Output),
		Stats:      pool,
		Sampled:    sampled,
	}, nil
}
