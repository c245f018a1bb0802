// specasan-sim runs one benchmark kernel (or an assembly file) on the
// simulated machine under a chosen mitigation and prints pipeline statistics.
//
// Usage:
//
//	specasan-sim -bench 505.mcf_r -mitigation SpecASan -scale 0.5
//	specasan-sim -file prog.s -mitigation Unsafe
//	specasan-sim -scenario examples/scenarios/dom-vs-specasan.json
//	specasan-sim -config          # print the Table 2 configuration
//
// -scenario loads a preset name or scenario file as the base configuration
// (machine, mitigation, workload, run options); explicitly-set flags
// override individual fields. A scenario with several workloads or
// mitigations runs the first of each (sim is a single-run tool; sweeps are
// specasan-bench's job). The effective scenario's canonical hash is printed
// on stderr and stamped into -metrics-out records.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/harness"
	"specasan/internal/isa"
	"specasan/internal/obs"
	"specasan/internal/prof"
	"specasan/internal/scenario"
	"specasan/internal/store"
	"specasan/internal/workloads"
)

func main() {
	scen := flag.String("scenario", "",
		"scenario preset name or file; explicitly-set flags override its fields")
	bench := flag.String("bench", "", "benchmark kernel name (e.g. 505.mcf_r, canneal)")
	file := flag.String("file", "", "assembly file to run instead of a kernel")
	mitName := flag.String("mitigation", "Unsafe", "a registered policy name (specasan-sim -mitigations lists them)")
	listMits := flag.Bool("mitigations", false, "list the registered mitigation policies and exit")
	scale := flag.Float64("scale", 1.0, "kernel iteration scale")
	maxCycles := flag.Uint64("max-cycles", 500_000_000, "cycle budget")
	showConfig := flag.Bool("config", false, "print the simulated CPU configuration (Table 2) and exit")
	trace := flag.Bool("trace", false, "record a cycle-accurate event trace and write it as Chrome trace-event JSON")
	traceOut := flag.String("trace-out", "trace.json", "where -trace writes its Chrome trace (load in Perfetto / chrome://tracing)")
	metricsOut := flag.String("metrics-out", "", "write a pipeline-metrics record (JSONL) to this file")
	traceText := flag.Bool("trace-text", false, "print the textual pipeline trace to stdout")
	pipeview := flag.Int("pipeview", 0, "render a timeline of the last N instructions")
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
		"result-store directory: serve this run from the store when a verified entry exists, persist it otherwise (named kernels without trace/pipeview/metrics instrumentation only)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0,
		"prune the -store directory to at most this many entry bytes on open, oldest entries first (0 = unbounded)")
	flag.Parse()

	if *showConfig {
		printConfig()
		return
	}
	if *listMits {
		for _, m := range core.RegisteredMitigations() {
			d := m.Descriptor()
			fmt.Printf("%-14s %s\n", d.Name, d.Class)
		}
		return
	}

	// Scenario layering: without -scenario the base is the default (table2)
	// scenario and every flag (defaults included) applies over it —
	// reproducing the pre-scenario CLI exactly; with -scenario only flags
	// the user actually typed override the loaded scenario.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	overrides := func(name string) bool { return *scen == "" || explicit[name] }

	s := scenario.Default()
	if *scen != "" {
		var err error
		if s, err = scenario.Load(*scen); err != nil {
			fatal(err)
		}
	} else if *bench == "" && *file == "" {
		fatal(fmt.Errorf("need -bench, -file, or -scenario (or -config)"))
	}
	if overrides("bench") && *bench != "" {
		s.Workloads = []string{*bench}
	}
	if overrides("file") && *file != "" {
		s.Workloads = []string{scenario.FileWorkloadPrefix + *file}
	}
	if overrides("mitigation") {
		s.Mitigations = []string{*mitName}
	}
	if overrides("scale") {
		s.Run.Scale = *scale
	}
	if overrides("max-cycles") {
		s.Run.MaxCycles = *maxCycles
	}
	if overrides("skip-idle") {
		s.Run.SkipIdle = *skipIdle
	}
	if overrides("fast-forward") {
		s.Run.FastForwardInsts = *fastForward
	}
	if overrides("sample-windows") {
		s.Run.SampleWindows = *sampleWindows
	}
	if overrides("sample-window-insts") {
		s.Run.SampleWindowInsts = *sampleWindowInsts
	}
	if overrides("warmup-cycles") {
		s.Run.WarmupCycles = *warmupCycles
	}
	if err := s.Validate(); err != nil {
		fatal(err)
	}
	hash := s.Hash()
	fmt.Fprintf(os.Stderr, "specasan-sim: scenario %s (hash %s)\n", s.Name, hash)

	mits, err := s.MitigationList()
	if err != nil {
		fatal(err)
	}
	mit := mits[0]

	// The result store serves plain named-kernel runs. File workloads are
	// not content-addressed (the scenario hash does not cover the file's
	// bytes), and instrumented runs must actually simulate — both fall
	// through to the ordinary path, uncached. Without -store the legacy
	// path runs untouched.
	if *storeDir != "" {
		instrumented := *trace || *traceText || *pipeview > 0 || *metricsOut != ""
		isFile := strings.HasPrefix(s.Workloads[0], scenario.FileWorkloadPrefix)
		if instrumented || isFile {
			fmt.Fprintln(os.Stderr, "specasan-sim: -store ignored (file workloads and instrumented runs always simulate, uncached)")
		} else if err := runStored(s, mit, *storeDir, *storeMaxBytes); err != nil {
			fatal(err)
		} else {
			return
		}
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "specasan-sim:", err)
		}
	}()

	// Sampling changes what "cycles" means (a detailed-window extrapolation),
	// so it routes through the harness instead of the plain machine loop.
	// Cycle-exact instrumentation of the whole run is incompatible by
	// definition: most cycles are never simulated.
	if s.Run.Sampling() {
		if *trace || *traceText || *pipeview > 0 {
			fatal(fmt.Errorf("-trace/-trace-text/-pipeview need a fully detailed run; drop -fast-forward/-sample-windows"))
		}
		if err := runSampled(s, mit, *metricsOut); err != nil {
			fatal(err)
		}
		return
	}

	var prog *asm.Program
	cfg := s.Machine
	threads := 1
	workload := s.Workloads[0]
	if path, isFile := strings.CutPrefix(workload, scenario.FileWorkloadPrefix); isFile {
		var src []byte
		src, err = os.ReadFile(path)
		if err == nil {
			prog, err = asm.Assemble(string(src))
		}
	} else {
		spec := workloads.ByName(workload)
		if spec == nil {
			fatal(fmt.Errorf("unknown benchmark %q (see internal/workloads)", workload))
		}
		threads = spec.Threads
		prog, err = spec.Build(mit.MTEEnabled(), s.Run.Scale)
	}
	if err != nil {
		fatal(err)
	}

	cfg.Cores = threads
	m, err := cpu.NewMachine(cfg, mit, prog)
	if err != nil {
		fatal(err)
	}
	for i := 0; i < threads; i++ {
		m.Core(i).SetReg(isa.X0, uint64(i))
	}
	m.SkipIdle = s.Run.SkipIdle
	if *traceText {
		m.Core(0).TraceFn = func(f string, a ...any) { fmt.Printf(f+"\n", a...) }
	}
	var tr *obs.Tracer
	if *trace {
		tr = obs.NewTracer(threads, 0)
	}
	var met *obs.Metrics
	if *metricsOut != "" {
		met = obs.NewMetrics(threads)
	}
	if tr != nil || met != nil {
		m.AttachObs(tr, met)
	}
	var rec *cpu.Recorder
	if *pipeview > 0 {
		rec = cpu.NewRecorder(*pipeview * 4)
		m.Core(0).Rec = rec
	}
	res := m.Run(s.Run.MaxCycles)
	if tr != nil {
		if err := writeTrace(*traceOut, tr); err != nil {
			fatal(err)
		}
		fmt.Printf("trace        %s (%d events, %d dropped)\n", *traceOut, tr.Recorded(), tr.Dropped())
	}
	if met != nil {
		name := strings.TrimPrefix(workload, scenario.FileWorkloadPrefix)
		rec := met.Record(name, mit.String(), res.Cycles, res.Committed)
		rec.ScenarioHash = hash
		if err := writeMetrics(*metricsOut, rec); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics      %s\n", *metricsOut)
	}
	if rec != nil {
		defer fmt.Print(rec.Render(*pipeview))
	}
	fmt.Printf("mitigation   %s\n", mit)
	fmt.Printf("cycles       %d\n", res.Cycles)
	fmt.Printf("committed    %d\n", res.Committed)
	fmt.Printf("ipc          %.3f\n", res.IPC())
	fmt.Printf("timed-out    %v\n", res.TimedOut)
	if cores := res.TimedOutCores(); len(cores) > 0 {
		fmt.Printf("stuck-cores  %v\n", cores)
	}
	fmt.Printf("faulted      %v\n", res.Faulted)
	if out := m.Core(0).Output; len(out) > 0 {
		fmt.Printf("output       %q\n", out)
	}
	fmt.Println("\ncounters:")
	fmt.Print(harness.FormatStats(res.Stats))
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "\nspecasan-sim: %v\npipeline snapshot:\n%s", res.Err, res.Err.Snapshot)
		stopProf() // os.Exit skips the deferred flush
		os.Exit(1)
	}
}

// runSampled runs one cell in fast-forward sampling mode through the
// harness: committed counts and output are exact, cycles are an
// IPC-extrapolated estimate from the detailed windows.
func runSampled(s *scenario.Scenario, mit core.Mitigation, metricsOut string) error {
	workload := s.Workloads[0]
	var spec *workloads.Spec
	if path, isFile := strings.CutPrefix(workload, scenario.FileWorkloadPrefix); isFile {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		spec = &workloads.Spec{Name: path, Threads: 1, Source: string(src)}
	} else {
		spec = workloads.ByName(workload)
		if spec == nil {
			return fmt.Errorf("unknown benchmark %q (see internal/workloads)", workload)
		}
	}
	opt := harness.OptionsFromScenario(s)
	opt.Log = os.Stderr
	var mf *os.File
	if metricsOut != "" {
		var err error
		if mf, err = os.Create(metricsOut); err != nil {
			return err
		}
		opt.Metrics = mf
	}
	r, err := harness.RunBenchmark(spec, mit, opt)
	if mf != nil {
		if cerr := mf.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if mf != nil {
		fmt.Printf("metrics      %s\n", metricsOut)
	}
	fmt.Printf("mitigation   %s\n", mit)
	fmt.Printf("cycles       %d\n", r.Cycles)
	fmt.Printf("committed    %d\n", r.Committed)
	fmt.Printf("ipc          %.3f\n", float64(r.Committed)/float64(r.Cycles))
	if sp := r.Sampled; sp != nil {
		fmt.Printf("sampled      %d window(s): %d insts functional, %d detailed; cycles are an estimate\n",
			sp.Windows, sp.FunctionalInsts, sp.DetailedInsts)
	} else {
		fmt.Printf("sampled      no (run too short or multi-threaded; fully detailed)\n")
	}
	if len(r.Output) > 0 {
		fmt.Printf("output       %q\n", r.Output)
	}
	fmt.Println("\ncounters:")
	fmt.Print(harness.FormatStats(r.Stats))
	return nil
}

// runStored runs (or serves) one named-kernel cell through the result
// store: a verified entry for (result hash, bench, mitigation) answers
// without simulating; a cold run simulates and persists. The printed block
// matches the ordinary path (FormatStats sorts counters, so cached and cold
// output are identical).
func runStored(s *scenario.Scenario, mit core.Mitigation, dir string, maxBytes int64) error {
	st, err := openStore(dir, maxBytes)
	if err != nil {
		return err
	}
	spec := workloads.ByName(s.Workloads[0])
	if spec == nil {
		return fmt.Errorf("unknown benchmark %q (see internal/workloads)", s.Workloads[0])
	}
	opt := harness.OptionsFromScenario(s)
	opt.Store = harness.DiskCellStore{S: st}
	r, cached, err := harness.RunCell(spec, mit, opt)
	if err != nil {
		return err
	}
	fmt.Printf("mitigation   %s\n", mit)
	fmt.Printf("cycles       %d\n", r.Cycles)
	fmt.Printf("committed    %d\n", r.Committed)
	fmt.Printf("ipc          %.3f\n", float64(r.Committed)/float64(r.Cycles))
	fmt.Printf("timed-out    false\n")
	fmt.Printf("faulted      false\n")
	if len(r.Output) > 0 {
		fmt.Printf("output       %q\n", r.Output)
	}
	fmt.Printf("cached       %v\n", cached)
	fmt.Println("\ncounters:")
	fmt.Print(harness.FormatStats(r.Stats))
	return nil
}

// openStore opens the result store and applies -store-max-bytes
// pruning, warning on stderr about read-only stores and prune activity.
func openStore(dir string, maxBytes int64) (*store.Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	if st.ReadOnly() {
		fmt.Fprintf(os.Stderr, "specasan-sim: store %s is read-only: serving cached results, not persisting new ones\n", dir)
	}
	if removed, freed, err := st.Prune(maxBytes); err != nil {
		fmt.Fprintln(os.Stderr, "specasan-sim:", err)
	} else if removed > 0 {
		fmt.Fprintf(os.Stderr, "specasan-sim: store pruned %d entries (%d bytes) to fit -store-max-bytes=%d\n",
			removed, freed, maxBytes)
	}
	return st, nil
}

func printConfig() {
	c := core.DefaultConfig()
	fmt.Println("Table 2: configuration of the simulated CPU")
	fmt.Printf("  CPU                 ARM Cortex A76-class out-of-order core\n")
	fmt.Printf("  Issue/Commit        %d-way issue, %d micro-ops/cycle commit\n", c.IssueWidth, c.CommitWidth)
	fmt.Printf("  IQ/ROB              %d-entry Issue Queue, %d-entry Reorder Buffer\n", c.IQEntries, c.ROBEntries)
	fmt.Printf("  LDQ/STQ             %d-entry each\n", c.LQEntries)
	fmt.Printf("  L1 I-Cache          %d KB, %d-way, 64B line, %d cycle hit\n", c.L1ISizeKB, c.L1IWays, c.L1ILatency)
	fmt.Printf("  L1 D-Cache          %d KB, %d-way, 64B line, %d cycle hit, tagged\n", c.L1DSizeKB, c.L1DWays, c.L1DLatency)
	fmt.Printf("  L2 Cache            %d KB, %d-way, 64B line, %d cycle hit, tagged\n", c.L2SizeKB, c.L2Ways, c.L2Latency)
	fmt.Printf("  Line Fill Buffer    %d-entry (cache line), 2 cycle hit, tagged\n", c.LFBEntries)
	fmt.Printf("  DRAM                %d cycle latency, %d-cycle bursts (+%d tag)\n", c.DRAMLatency, c.DRAMBurst, c.TagBurst)
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

// writeMetrics dumps one JSONL metrics record.
func writeMetrics(path string, rec obs.MetricsRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteMetricsLine(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specasan-sim:", err)
	os.Exit(1)
}
