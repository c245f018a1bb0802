// specasan-bench regenerates the paper's performance figures:
//
//	-fig 6   SPEC CPU2017 normalized execution time (Barriers/STT/GhostMinion/SpecASan)
//	-fig 7   PARSEC (4 cores) normalized execution time
//	-fig 8   restricted speculative instructions (SPEC and PARSEC)
//	-fig 9   SpecCFI vs SpecASan vs SpecASan+CFI on SPEC
//	-fig 1   defence-class timing comparison on a Spectre-v1 gadget
//	-all     everything
//	-perf    measure the simulator itself and write BENCH_sim.json
//
// Sweeps run their cells on a bounded worker pool (-workers, default
// GOMAXPROCS); output is byte-identical to -workers=1. The -perf sweep legs
// take their pool size from
// -sweep-workers, recorded in the report. -cpuprofile and -memprofile
// capture stdlib pprof profiles of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/harness"
	"specasan/internal/obs"
	"specasan/internal/prof"
	"specasan/internal/scenario"
	"specasan/internal/store"
	"specasan/internal/workloads"
)

// perfSteps is the steady-state step count behind the -perf single-core
// measurement: long enough to amortise timer noise, short enough to finish
// in about a second.
const perfSteps = 500_000

func main() {
	scen := flag.String("scenario", "",
		"run the sweep a scenario describes (preset name or file); incompatible with -fig/-all/-perf")
	fig := flag.Int("fig", 0, "figure to regenerate (1, 6, 7, 8, 9)")
	all := flag.Bool("all", false, "regenerate every figure")
	perf := flag.Bool("perf", false, "measure simulator performance and write a BENCH_sim.json report")
	perfOut := flag.String("perf-out", "BENCH_sim.json", "where -perf writes its report")
	perfNote := flag.String("perf-note", "",
		"override the -perf history entry's description (default: a summary of the active fast paths)")
	scale := flag.Float64("scale", 1.0, "kernel iteration scale")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial)")
	sweepWorkers := flag.Int("sweep-workers", 0,
		"worker pool size for the -perf sweep legs (0 = GOMAXPROCS); the resolved value is recorded in the report")
	traceCell := flag.String("trace", "", "record a Chrome trace of one sweep cell, named benchmark/mitigation (e.g. 505.mcf_r/SpecASan)")
	traceOut := flag.String("trace-out", "trace.json", "where -trace writes its Chrome trace-event JSON")
	metricsOut := flag.String("metrics-out", "", "write per-cell metrics records (JSONL, cell order) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	skipIdle := flag.Bool("skip-idle", true, "event-driven idle-cycle skipping (exactness-preserving; off walks every cycle)")
	fastForward := flag.Uint64("fast-forward", 0,
		"fast-forward this many instructions functionally before detailed simulation (0 = fully detailed; committed counts and output stay exact, cycles become an estimate)")
	sampleWindows := flag.Int("sample-windows", 0,
		"simulate this many evenly-spaced detailed windows and extrapolate cycles from their pooled IPC (requires -sample-window-insts; <=1 = tail mode / off)")
	sampleWindowInsts := flag.Uint64("sample-window-insts", 0,
		"instructions per detailed window for -sample-windows")
	warmupCycles := flag.Uint64("warmup-cycles", 0,
		"detailed warmup cycles excluded before each sampled measurement (0 = default 2000)")
	storeDir := flag.String("store", "",
		"result-store directory for -scenario sweeps: verified cached cells are served without simulating, cold cells persist (ignored by -fig/-all/-perf, which are pinned measurements)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0,
		"prune the -store directory to at most this many entry bytes on open, oldest entries first (0 = unbounded)")
	verbose := flag.Bool("v", false, "log each run")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "specasan-bench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "specasan-bench:", err)
		}
	}()

	opt := harness.DefaultOptions()
	opt.Scale = *scale
	opt.Verbose = *verbose
	opt.Log = os.Stderr
	opt.Workers = *workers
	opt.NoSkipIdle = !*skipIdle
	opt.FastForwardInsts = *fastForward
	opt.SampleWindows = *sampleWindows
	opt.SampleWindowInsts = *sampleWindowInsts
	opt.WarmupCycles = *warmupCycles

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "specasan-bench:", err)
			}
		}()
		opt.Metrics = f
	}
	// The trace hook fires on the first sweep cell matching bench/mitigation.
	// Sweeps run one after another, so with -all a cell appearing in several
	// figures is traced each time and the last run's trace is written.
	var tr *obs.Tracer
	if *traceCell != "" {
		wantBench, wantMit, ok := strings.Cut(*traceCell, "/")
		if !ok {
			fatal(fmt.Errorf("-trace wants benchmark/mitigation, got %q", *traceCell))
		}
		opt.Attach = func(bench string, mit core.Mitigation, m *cpu.Machine) {
			if bench != wantBench || mit.String() != wantMit {
				return
			}
			t := obs.NewTracer(len(m.Cores), 0)
			m.AttachObs(t, nil)
			tr = t
		}
		defer func() {
			if tr == nil {
				fmt.Fprintf(os.Stderr, "specasan-bench: -trace cell %q never ran\n", *traceCell)
				return
			}
			if err := writeTrace(*traceOut, tr); err != nil {
				fmt.Fprintln(os.Stderr, "specasan-bench:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "specasan-bench: trace of %s: %s (%d events, %d dropped)\n",
				*traceCell, *traceOut, tr.Recorded(), tr.Dropped())
		}()
	}

	if *scen != "" {
		if *fig != 0 || *all || *perf {
			fatal(fmt.Errorf("-scenario is a complete sweep description; combine overrides into the scenario instead of -fig/-all/-perf"))
		}
		if *storeDir != "" {
			st, err := store.Open(*storeDir)
			if err != nil {
				fatal(err)
			}
			if st.ReadOnly() {
				fmt.Fprintf(os.Stderr, "specasan-bench: store %s is read-only: serving cached results, not persisting new ones\n", *storeDir)
			}
			if removed, freed, err := st.Prune(*storeMaxBytes); err != nil {
				fmt.Fprintln(os.Stderr, "specasan-bench:", err)
			} else if removed > 0 {
				fmt.Fprintf(os.Stderr, "specasan-bench: store pruned %d entries (%d bytes) to fit -store-max-bytes=%d\n",
					removed, freed, *storeMaxBytes)
			}
			opt.Store = harness.DiskCellStore{S: st}
		}
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		runScenario(*scen, opt, explicit)
		return
	}
	if *storeDir != "" {
		// -fig/-all reproduce the paper's pinned figures and -perf measures
		// the simulator itself; serving any of them from a cache would
		// defeat the point.
		fmt.Fprintln(os.Stderr, "specasan-bench: -store only applies to -scenario sweeps; ignored")
	}

	if *perf {
		// -perf measures the simulator itself; instrumentation would skew it.
		opt.Metrics = nil
		opt.Attach = nil
		// The sweep leg of the measurement is exactly the figure6 scenario at
		// this run's scale; stamp its hash so the history's regression gate
		// can tell comparable entries apart.
		ps, _ := scenario.Preset(scenario.PresetFigure6)
		ps.Run.Scale = opt.Scale
		ps.Run.SkipIdle = !opt.NoSkipIdle
		opt.ScenarioHash = ps.Hash()
		// The sweep legs' pool size is an explicit, recorded choice now —
		// -sweep-workers, not a silent GOMAXPROCS pin inside MeasurePerf.
		opt.Workers = *sweepWorkers
		runPerf(*perfOut, *perfNote, opt)
		return
	}

	run := func(n int) {
		switch n {
		case 1:
			figure1()
		case 6:
			sw := sweep(workloads.SPEC(), harness.Figure6Mitigations(), opt)
			fmt.Println(sw.FormatNormalized("Figure 6: SPEC CPU2017, normalized execution time (unsafe baseline = 1.0)"))
		case 7:
			sw := sweep(workloads.PARSEC(), harness.Figure6Mitigations(), opt)
			fmt.Println(sw.FormatNormalized("Figure 7: PARSEC (4 cores), normalized execution time (unsafe baseline = 1.0)"))
		case 8:
			sw := sweep(workloads.SPEC(), harness.Figure8Mitigations(), opt)
			fmt.Println(sw.FormatRestricted("Figure 8 (top): SPEC CPU2017, restricted speculative instructions"))
			sw = sweep(workloads.PARSEC(), harness.Figure8Mitigations(), opt)
			fmt.Println(sw.FormatRestricted("Figure 8 (bottom): PARSEC, restricted speculative instructions"))
		case 9:
			sw := sweep(workloads.SPEC(), harness.Figure9Mitigations(), opt)
			fmt.Println(sw.FormatNormalized("Figure 9: SPEC CPU2017, CFI combinations, normalized execution time"))
		default:
			fmt.Fprintln(os.Stderr, "specasan-bench: pick -fig 1|6|7|8|9 or -all")
			os.Exit(2)
		}
	}
	if *all {
		for _, n := range []int{1, 6, 7, 8, 9} {
			run(n)
		}
		return
	}
	run(*fig)
}

// runScenario runs the sweep a scenario describes and renders it as a
// normalized-execution-time table. Explicitly-typed -scale/-workers/
// -skip-idle/-fast-forward/-sample-windows/-sample-window-insts/
// -warmup-cycles flags override the scenario's run options; everything else
// (machine, mitigation columns, workload rows) comes from the scenario. The
// effective hash is printed on stderr and stamped into -metrics-out records.
func runScenario(arg string, opt harness.Options, explicit map[string]bool) {
	s, err := scenario.Load(arg)
	if err != nil {
		fatal(err)
	}
	if explicit["scale"] {
		s.Run.Scale = opt.Scale
	}
	if explicit["workers"] {
		s.Run.Workers = opt.Workers
	}
	if explicit["skip-idle"] {
		s.Run.SkipIdle = !opt.NoSkipIdle
	}
	if explicit["fast-forward"] {
		s.Run.FastForwardInsts = opt.FastForwardInsts
	}
	if explicit["sample-windows"] {
		s.Run.SampleWindows = opt.SampleWindows
	}
	if explicit["sample-window-insts"] {
		s.Run.SampleWindowInsts = opt.SampleWindowInsts
	}
	if explicit["warmup-cycles"] {
		s.Run.WarmupCycles = opt.WarmupCycles
	}
	if err := s.Validate(); err != nil {
		fatal(err)
	}
	hash := s.Hash()
	fmt.Fprintf(os.Stderr, "specasan-bench: scenario %s (hash %s)\n", s.Name, hash)
	sw, err := harness.RunScenarioSweep(s, opt)
	if err != nil {
		fatal(err)
	}
	for _, f := range sw.FailedCells() {
		fmt.Fprintln(os.Stderr, "specasan-bench: cell failed:", f)
	}
	fmt.Println(sw.FormatNormalized(fmt.Sprintf(
		"Scenario %s (hash %s): normalized execution time (unsafe baseline = 1.0)",
		s.Name, hash)))
}

// runPerf measures the simulator substrate itself — steady-state single-core
// throughput and serial-vs-parallel sweep wall time — and writes the
// BENCH_sim.json report (format documented in README.md).
func runPerf(path, note string, opt harness.Options) {
	rep, err := harness.MeasurePerf(perfSteps, workloads.SPEC(), harness.Figure6Mitigations(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "specasan-bench:", err)
		os.Exit(1)
	}
	desc := "event-driven idle skipping + flat memory/tag/cache paths"
	if opt.NoSkipIdle {
		desc = "flat memory/tag/cache paths (idle skipping disabled)"
	}
	if note != "" {
		desc = note
	}
	if err := rep.AppendHistory(path, desc); err != nil {
		fmt.Fprintln(os.Stderr, "specasan-bench:", err)
		os.Exit(1)
	}
	if err := rep.WriteJSON(path); err != nil {
		fmt.Fprintln(os.Stderr, "specasan-bench:", err)
		os.Exit(1)
	}
	notice, regressed := rep.RegressionVsPrevious()
	fmt.Printf("single core: %.0f ns/cycle, %.3f simulated MIPS, %.4f allocs/committed instr (%s)\n",
		rep.SingleCore.HostNsPerCycle, rep.SingleCore.SimMIPS,
		rep.SingleCore.AllocsPerCommitted, rep.SingleCore.Workload)
	fmt.Printf("vs baseline: %.2fx (%.0f ns/cycle before)\n",
		rep.SingleCoreSpeedup, rep.Baseline.HostNsPerCycle)
	fmt.Printf("golden:      %.1f simulated MIPS functional (%s)\n",
		rep.Golden.SimMIPS, rep.Golden.Workload)
	fmt.Printf("sweep:       %d cells in %.2fs on %d workers vs %.2fs serial (%.2fx)\n",
		rep.Sweep.Cells, rep.Sweep.WallSeconds, rep.Sweep.Workers,
		rep.Sweep.SerialWallSeconds, rep.Sweep.Speedup)
	fmt.Printf("sampled:     %d windows x %d insts: %.2fs vs %.2fs full (%.2fx, max IPC delta %.2f%%)\n",
		rep.SampledSweep.Windows, rep.SampledSweep.WindowInsts,
		rep.SampledSweep.SampledWallSeconds, rep.SampledSweep.FullWallSeconds,
		rep.SampledSweep.Speedup, rep.SampledSweep.MaxIPCDeltaPct)
	fmt.Printf("report:      %s\n", path)
	fmt.Println(notice)
	if regressed {
		os.Exit(1)
	}
}

// writeTrace dumps the recorded event trace as Chrome trace-event JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specasan-bench:", err)
	os.Exit(1)
}

func sweep(specs []*workloads.Spec, mits []core.Mitigation, opt harness.Options) *harness.Sweep {
	sw, err := harness.RunSweep(specs, mits, opt)
	if err != nil {
		// Every cell failed — nothing to format.
		fmt.Fprintln(os.Stderr, "specasan-bench:", err)
		os.Exit(1)
	}
	// Individual failed cells are footnoted by the formatters; warn on
	// stderr too so scripted runs notice.
	for _, f := range sw.FailedCells() {
		fmt.Fprintln(os.Stderr, "specasan-bench: cell failed:", f)
	}
	return sw
}

// figure1 contrasts the defence classes on the Spectre-v1 gadget: where in
// the ACCESS/USE/TRANSMIT chain each defence stops the attack, and what the
// benign-path timing cost of that choice is.
func figure1() {
	fmt.Println("Figure 1: defence classes on the Spectre-v1 gadget")
	fmt.Println()
	fmt.Printf("%-13s %-18s %-14s %s\n", "defence", "class", "gadget blocked", "benign v1-shaped loop (cycles)")
	v := attacks.SpectrePHT().Variants[0]
	for _, mit := range []core.Mitigation{core.Unsafe, core.Fence, core.STT, core.GhostMinion, core.SpecASan} {
		out, err := attacks.RunVariant(v, mit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "specasan-bench:", err)
			os.Exit(1)
		}
		cycles := benignLoop(mit)
		fmt.Printf("%-13s %-18s %-14v %d\n", mit, mit.Descriptor().Class, !out.Leaked, cycles)
	}
	fmt.Println()
}

// benignLoop measures a benign bounds-checked loop (the victim code of
// Listing 1 with in-bounds indices) under a mitigation.
func benignLoop(mit core.Mitigation) uint64 {
	spec := workloads.ByName("500.perlbench_r")
	prog, err := spec.Build(mit.MTEEnabled(), 0.1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "specasan-bench:", err)
		os.Exit(1)
	}
	m, err := cpu.NewMachine(core.DefaultConfig(), mit, prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "specasan-bench:", err)
		os.Exit(1)
	}
	return m.Run(100_000_000).Cycles
}
