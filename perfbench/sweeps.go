package main

// detailed-sweep and sampled-sweep: Figure-6 cells (five mitigations per
// drawn kernel) run through harness.RunSweep with nproc workers. The detailed
// sweep walks every cell cycle by cycle from empty caches; the sampled sweep
// runs each cell in windowed fast-forward mode, where the golden interpreter
// walks the whole program and the detailed core runs only short windows whose
// caches are functionally warmed from the walk's recent touches.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/harness"
	"specasan/internal/isa"
	"specasan/internal/par"
	"specasan/internal/workloads"
)

// sweepCell is one (kernel, mitigation) cell of a drawn sweep.
type sweepCell struct {
	spec *workloads.Spec
	mit  core.Mitigation
}

func (c sweepCell) key() string { return cellKey(c.spec.Name, c.mit) }

// sweepCells expands drawn kernels into cells in RunSweep order
// (kernel-major, mitigation-minor).
func sweepCells(specs []*workloads.Spec) []sweepCell {
	var cells []sweepCell
	for _, s := range specs {
		for _, m := range figure6 {
			cells = append(cells, sweepCell{s, m})
		}
	}
	return cells
}

// prepareSweep is the sweeps' set-up, what precedes a sweep for its user:
// draw the kernels and build every program the round will run (each kernel
// in both MTE modes), which proves every program assembles before timing
// starts.
func prepareSweep(seed uint64, sampled bool) ([]*workloads.Spec, error) {
	draw := drawDetailed
	if sampled {
		draw = drawSampled
	}
	var specs []*workloads.Spec
	for _, p := range draw(seed) {
		s := p.spec()
		for _, tagged := range []bool{false, true} {
			if _, err := s.Build(tagged, 1); err != nil {
				return nil, fmt.Errorf("%s: build: %w", s.Name, err)
			}
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// sweepOracle is the golden reference a sweep's cells are checked against,
// walked once per run outside the timed set-up. Sampled sweeps have none:
// in windowed mode the harness takes a cell's committed count and output
// from its own golden walk, so a second walk could never disagree. Their
// oracle is the pinned full detailed walk, golden-checked when it was
// pinned.
func sweepOracle(specs []*workloads.Spec, sampled bool) (goldenRefs, error) {
	if sampled {
		return nil, nil
	}
	return goldenOracle(specs)
}

// goldenOracle walks every kernel in both MTE modes.
func goldenOracle(specs []*workloads.Spec) (goldenRefs, error) {
	oracle := goldenRefs{}
	for _, s := range specs {
		for _, tagged := range []bool{false, true} {
			g, err := goldenWalk(s, tagged)
			if err != nil {
				return nil, fmt.Errorf("%s: golden: %w", s.Name, err)
			}
			oracle[goldenKey{s.Name, tagged}] = g
		}
	}
	return oracle, nil
}

// goldenKey names one kernel build; goldenRefs holds each build's golden
// reference.
type goldenKey struct {
	kernel string
	tagged bool
}

type goldenRefs map[goldenKey]cellRef

func refOf(r *harness.PerfResult) cellRef {
	return cellRef{Cycles: r.Cycles, Committed: r.Committed, Restricted: r.Restricted, OutputSHA: digest([]byte(r.Output))}
}

// pinned returns the reference a cell's result must equal.
func pinned(key string, sampled bool) (cellRef, bool) {
	if sampled {
		r, ok := refs.Sampled[key]
		return r.Sampled, ok
	}
	r, ok := refs.Detailed[key]
	return r, ok
}

// checkCells checks one round's results; each cell is one operation, failed
// when it errored or cellProblem finds a problem.
func checkCells(out *outcome, cells []sweepCell, got map[string]cellRef, errs map[string]error, oracle goldenRefs, sampled bool) {
	for _, c := range cells {
		out.attempted++
		if err := errs[c.key()]; err != nil {
			out.fail("%s: %v", c.key(), err)
		} else if p := cellProblem(c, got[c.key()], oracle, sampled, true); p != "" {
			out.fail("%s: %s", c.key(), p)
		}
	}
}

// cellProblem describes how a cell's result is wrong, or returns "": with an
// oracle, its committed count and output must equal the golden walk of its
// build; with pins set, it must equal its pinned result and (sampled) the
// pinned full walk's committed count and output.
func cellProblem(c sweepCell, r cellRef, oracle goldenRefs, sampled, pins bool) string {
	if oracle != nil {
		g := oracle[goldenKey{c.spec.Name, c.mit.MTEEnabled()}]
		if r.Committed != g.Committed || r.OutputSHA != g.OutputSHA {
			return fmt.Sprintf("committed=%d output=%s, golden committed=%d output=%s",
				r.Committed, r.OutputSHA, g.Committed, g.OutputSHA)
		}
	}
	if !pins {
		return ""
	}
	want, ok := pinned(c.key(), sampled)
	if !ok {
		return "no pinned reference"
	}
	if d := want.diff(r); d != "" {
		return d
	}
	if full := refs.Sampled[c.key()].Full; sampled && (r.Committed != full.Committed || r.OutputSHA != full.OutputSHA) {
		return fmt.Sprintf("sampled committed=%d output=%s, full walk committed=%d output=%s",
			r.Committed, r.OutputSHA, full.Committed, full.OutputSHA)
	}
	return ""
}

// goldenWalk is the architectural reference of a kernel build: committed
// instructions summed over cores, and core 0's output.
func goldenWalk(spec *workloads.Spec, tagged bool) (cellRef, error) {
	prog, err := spec.Build(tagged, 1)
	if err != nil {
		return cellRef{}, err
	}
	var ref cellRef
	for i := 0; i < spec.Threads; i++ {
		ip := golden.New(prog)
		ip.MTEOn = tagged
		ip.TagSeed = cpu.TagSeedBase + uint64(i)
		ip.SetReg(isa.X0, uint64(i))
		res := ip.Run(maxCycles * functionalInstWidth)
		if res.Reason != golden.StopExit {
			return cellRef{}, fmt.Errorf("core %d stopped with %v after %d instructions", i, res.Reason, res.Insts)
		}
		ref.Committed += res.Insts
		if i == 0 {
			ref.OutputSHA = digest(res.Output)
		}
	}
	return ref, nil
}

// sweepRound runs one untraced round through harness.RunSweep.
func sweepRound(specs []*workloads.Spec, sampled bool, workers int) (cost, map[string]cellRef, map[string]error) {
	opt := sweepOptions(workers, sampled)
	w := startWatch()
	sw, _ := harness.RunSweep(specs, figure6, opt) // per-cell failures are in sw.Errors
	c := w.stop()
	got, errs := map[string]cellRef{}, map[string]error{}
	for _, c := range sweepCells(specs) {
		if r := sw.Results[c.spec.Name][c.mit]; r != nil {
			got[c.key()] = refOf(r)
		} else if err := sw.Err(c.spec.Name, c.mit); err != nil {
			errs[c.key()] = err
		} else {
			errs[c.key()] = errors.New("no result")
		}
	}
	return c, got, errs
}

func runDetailed(e *env) (*outcome, error) { return runSweepWorkload(e, false) }
func runSampled(e *env) (*outcome, error)  { return runSweepWorkload(e, true) }

func runSweepWorkload(e *env, sampled bool) (*outcome, error) {
	var specs []*workloads.Spec
	setup, err := timeSetup(func() (teardown func(), err error) {
		specs, err = prepareSweep(e.seed, sampled)
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	oracle, err := sweepOracle(specs, sampled)
	if err != nil {
		return nil, err
	}
	cells := sweepCells(specs)
	out := &outcome{}
	costs, rss, err := measureRounds(e.seconds, func() (cost, error) {
		c, got, errs := sweepRound(specs, sampled, e.workers)
		checkCells(out, cells, got, errs, oracle, sampled)
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics = endToEndMetrics(setup, costs, rss, len(cells))
	return out, nil
}

func tracedDetailed(e *env) (*outcome, error) { return tracedSweepWorkload(e, false) }
func tracedSampled(e *env) (*outcome, error)  { return tracedSweepWorkload(e, true) }

// tracedSweepWorkload alternates untraced rounds (for the tracing overhead)
// with traced rounds, whose recomposed cells must reproduce the untraced
// results exactly.
func tracedSweepWorkload(e *env, sampled bool) (*outcome, error) {
	specs, err := prepareSweep(e.seed, sampled)
	if err != nil {
		return nil, err
	}
	oracle, err := sweepOracle(specs, sampled)
	if err != nil {
		return nil, err
	}
	cells := sweepCells(specs)
	name := "detailed-sweep"
	if sampled {
		name = "sampled-sweep"
	}
	out := &outcome{}
	out.metrics, err = tracedRounds(e, name, func() (time.Duration, time.Duration, *tracer, error) {
		c, want, errs := sweepRound(specs, sampled, e.workers)
		checkCells(out, cells, want, errs, oracle, sampled)

		tr := newTracer()
		twall, got, terrs := tracedSweepRound(tr, cells, sampled, e.workers)
		for _, c := range cells {
			out.attempted++
			k := c.key()
			if err := terrs[k]; err != nil {
				out.fail("traced %s: %v", k, err)
			} else if d := want[k].diff(got[k]); d != "" {
				out.fail("traced %s differs from untraced: %s", k, d)
			}
		}
		// Simulated throughput is taken from the untraced round.
		var committed float64
		for _, r := range want {
			committed += float64(r.Committed)
		}
		tr.set("harness.sim_mips", committed/1e6/c.wall.Seconds())
		if sampled {
			ipcErr, ovErr := samplingError(cells, got)
			tr.set("harness.ipc_err_max_pct", ipcErr)
			tr.set("harness.overhead_err_max_pp", ovErr)
		}
		return c.wall, twall, tr, nil
	})
	return out, err
}

// samplingError scores sampled estimates against the pinned full walks: the
// worst cell's IPC error in percent, and the worst kernel's error in
// SpecASan-over-Unsafe normalised time in percentage points.
func samplingError(cells []sweepCell, got map[string]cellRef) (ipcErrPct, overheadErrPP float64) {
	norm := func(r map[string]cellRef, kernel string) float64 {
		return float64(r[cellKey(kernel, core.SpecASan)].Cycles) / float64(r[cellKey(kernel, core.Unsafe)].Cycles)
	}
	full := map[string]cellRef{}
	for _, c := range cells {
		full[c.key()] = refs.Sampled[c.key()].Full
	}
	for _, c := range cells {
		s, f := got[c.key()], full[c.key()]
		ipcS := float64(s.Committed) / float64(s.Cycles)
		ipcF := float64(f.Committed) / float64(f.Cycles)
		ipcErrPct = math.Max(ipcErrPct, 100*math.Abs(ipcS-ipcF)/ipcF)
		if c.mit == core.Unsafe {
			overheadErrPP = math.Max(overheadErrPP, 100*math.Abs(norm(got, c.spec.Name)-norm(full, c.spec.Name)))
		}
	}
	return ipcErrPct, overheadErrPP
}

// tracedSweepRound runs the cells on the sweep's pool (par.ForEachOrdered, as
// RunSweep does) through the recomposed cell, and records the pool's busy
// share and its tail: the wait, after the first worker ran out of cells, for
// the slowest ones.
func tracedSweepRound(tr *tracer, cells []sweepCell, sampled bool, workers int) (time.Duration, map[string]cellRef, map[string]error) {
	res := make([]cellRef, len(cells))
	errs := make([]error, len(cells))
	ends := make([]time.Duration, len(cells))
	busy := make([]time.Duration, len(cells))
	t0 := time.Now()
	par.ForEachOrdered(len(cells), workers, func(i int) {
		t := time.Now()
		if sampled {
			res[i], errs[i] = tracedSampledCell(tr, i, cells[i].spec, cells[i].mit)
		} else {
			res[i], errs[i] = tracedDetailedCell(tr, i, cells[i].spec, cells[i].mit)
		}
		ends[i] = time.Since(t0)
		busy[i] = time.Since(t)
	}, nil)
	wall := time.Since(t0)

	w := par.Workers(workers, len(cells))
	var total time.Duration
	for _, b := range busy {
		total += b
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] > ends[j] })
	tr.set("par.busy_frac", total.Seconds()/(float64(w)*wall.Seconds()))
	tr.set("par.tail_idle_s", (wall - ends[w-1]).Seconds())

	got, errm := map[string]cellRef{}, map[string]error{}
	for i, c := range cells {
		if errs[i] != nil {
			errm[c.key()] = errs[i]
			continue
		}
		got[c.key()] = res[i]
	}
	return wall, got, errm
}

// buildTraced generates and assembles a kernel's program under spans, as
// Spec.Build does.
func buildTraced(tr *tracer, parent, op int, spec *workloads.Spec, tagged bool) (*asm.Program, error) {
	s := tr.begin("workloads.generate", parent, op)
	src := workloads.Generate(spec.Params, spec.Threads, tagged)
	tr.end(s)
	s = tr.begin("asm.assemble", parent, op)
	defer tr.end(s)
	return asm.Assemble(src)
}

// recordRun records a detailed run's counts at the cpu and cache boundary:
// machine cycles and host time by core count, committed, dispatched and
// squashed instructions, and the hierarchy's hit, miss, tag-check and
// coherence counters.
func recordRun(tr *tracer, m *cpu.Machine, res *cpu.RunResult, cycles uint64, d time.Duration) {
	cores := "1core"
	if len(m.Cores) > 1 {
		cores = "4core"
	}
	tr.add("cpu.cycles_"+cores, float64(cycles))
	tr.add("cpu.run_ns_"+cores, float64(d.Nanoseconds()))
	tr.add("cpu.committed", float64(res.Committed))
	tr.add("cpu.dispatched", float64(res.Stats.Get("dispatched")))
	tr.add("cpu.squashed", float64(res.Stats.Get("squashed_insts")))
	for _, l := range m.Hier.L1D {
		tr.add("cache.l1d_hits", float64(l.Hits))
		tr.add("cache.l1d_misses", float64(l.Misses))
	}
	tr.add("cache.l2_hits", float64(m.Hier.L2.Hits))
	tr.add("cache.l2_misses", float64(m.Hier.L2.Misses))
	tr.add("cache.tag_checks", float64(m.Hier.TagChecks))
	tr.add("cache.coherence_inv", float64(m.Hier.CoherenceInv))
}

// runErr converts a run's end state into the cell errors the harness reports.
func runErr(m *cpu.Machine, res *cpu.RunResult, final bool) error {
	switch {
	case res.Err != nil:
		return res.Err
	case res.Faulted:
		return fmt.Errorf("faulted at %#x (core %d)", m.Core(res.FaultCore).FaultPC, res.FaultCore)
	case final && res.TimedOut:
		return fmt.Errorf("%w after %d cycles", harness.ErrTimedOut, res.Cycles)
	}
	return nil
}

// tracedDetailedCell is harness.RunCell's full detailed path, recomposed from
// the layers' public functions under spans.
func tracedDetailedCell(tr *tracer, op int, spec *workloads.Spec, mit core.Mitigation) (cellRef, error) {
	cell := tr.begin("harness.cell", -1, op)
	defer tr.end(cell)
	prog, err := buildTraced(tr, cell, op, spec, mit.MTEEnabled())
	if err != nil {
		return cellRef{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Cores = spec.Threads
	s := tr.begin("cpu.construct", cell, op)
	m, err := cpu.NewMachine(cfg, mit, prog)
	if err == nil {
		for i := 0; i < spec.Threads; i++ {
			m.Core(i).SetReg(isa.X0, uint64(i))
		}
		m.SkipIdle = true
	}
	tr.end(s)
	if err != nil {
		return cellRef{}, err
	}
	s = tr.begin("cpu.run", cell, op)
	res := m.Run(maxCycles)
	d := tr.end(s)
	if err := runErr(m, res, true); err != nil {
		return cellRef{}, err
	}
	recordRun(tr, m, res, res.Cycles, d)
	return cellRef{
		Cycles: res.Cycles, Committed: res.Committed,
		Restricted: res.Stats.Get("restricted_commits"), OutputSHA: digest(m.Core(0).Output),
	}, nil
}

// newGoldenTraced builds a golden interpreter matching the detailed machine's
// committed semantics, as the harness's sampled path does.
func newGoldenTraced(fe cpu.Frontend, mit core.Mitigation) *golden.Interp {
	ip := golden.NewFrom(fe)
	ip.MTEOn = mit.MTEEnabled()
	ip.TagSeed = cpu.TagSeedBase
	return ip
}

// goldenRun advances a golden walk under a span and counts its instructions.
func goldenRun(tr *tracer, parent, op int, ip *golden.Interp, n uint64) *golden.Result {
	s := tr.begin("golden.walk", parent, op)
	res := ip.Run(n)
	tr.end(s)
	tr.add("golden.insts", float64(res.Insts))
	return res
}

// tracedSampledCell is harness.RunCell's windowed sampling path recomposed
// from the layers' public functions under spans: a full golden walk for the
// exact totals, then one progressive walk with a state transplant, cache
// warming, a warmup run and a measured window at each window start.
func tracedSampledCell(tr *tracer, op int, spec *workloads.Spec, mit core.Mitigation) (cellRef, error) {
	cell := tr.begin("harness.cell", -1, op)
	defer tr.end(cell)
	prog, err := buildTraced(tr, cell, op, spec, mit.MTEEnabled())
	if err != nil {
		return cellRef{}, err
	}
	fe := cpu.AssembledFrontend{Prog: prog}
	fres := goldenRun(tr, cell, op, newGoldenTraced(fe, mit), maxCycles*functionalInstWidth)
	if fres.Reason != golden.StopExit {
		return cellRef{}, fmt.Errorf("functional walk stopped with %v", fres.Reason)
	}
	total := fres.Insts
	if sampledFastForward >= total {
		return cellRef{}, fmt.Errorf("program too short to sample (%d instructions)", total)
	}
	span := total - sampledFastForward
	var starts []uint64
	for i := 0; i < sampledWindows; i++ {
		s := sampledFastForward + span*uint64(i)/uint64(sampledWindows)
		if n := len(starts); n > 0 && s <= starts[n-1] {
			continue
		}
		starts = append(starts, s)
	}

	cfg := core.DefaultConfig()
	cfg.Cores = 1
	ip := newGoldenTraced(fe, mit)
	ip.Touch = golden.NewTouchRing(sampledTouchRing)
	var cur, sumCycles, sumCom, sumDetCom, restricted uint64
	for _, start := range starts {
		if start > cur {
			if g := goldenRun(tr, cell, op, ip, start-cur); g.Reason != golden.StopMaxInsts {
				return cellRef{}, fmt.Errorf("functional walk stopped early (%v)", g.Reason)
			}
			cur = start
		}
		s := tr.begin("golden.snapshot", cell, op)
		st := ip.Snapshot()
		tr.end(s)
		s = tr.begin("cpu.construct", cell, op)
		m, err := cpu.NewMachineAtFrontend(cfg, mit, fe, st)
		if err == nil {
			m.SkipIdle = true
		}
		tr.end(s)
		if err != nil {
			return cellRef{}, err
		}
		s = tr.begin("cache.warm", cell, op)
		m.WarmCaches(ip.Touch)
		tr.end(s)

		s = tr.begin("cpu.run", cell, op)
		wres := m.Run(harness.DefaultWarmupCycles)
		d := tr.end(s)
		if err := runErr(m, wres, false); err != nil {
			return cellRef{}, err
		}
		baseCycles, baseCom := m.Cycle(), m.Core(0).Committed()
		s = tr.begin("cpu.run", cell, op)
		res := m.RunUntilCommitted(baseCom+sampledWindowInsts, maxCycles)
		d += tr.end(s)
		if err := runErr(m, res, true); err != nil {
			return cellRef{}, err
		}
		recordRun(tr, m, res, m.Cycle(), d)

		detCycles, detCom := m.Cycle(), res.Committed
		mCycles, mCom := detCycles-baseCycles, detCom-baseCom
		if mCycles == 0 || mCom == 0 {
			mCycles, mCom = detCycles, detCom
		}
		sumCycles += mCycles
		sumCom += mCom
		sumDetCom += detCom
		restricted += res.Stats.Get("restricted_commits")
	}
	ipc := float64(sumCom) / float64(sumCycles)
	return cellRef{
		Cycles:     uint64(float64(total)/ipc + 0.5),
		Committed:  total,
		Restricted: uint64(float64(restricted)*float64(total)/float64(sumDetCom) + 0.5),
		OutputSHA:  digest(fres.Output),
	}, nil
}
