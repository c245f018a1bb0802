package cpu

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/obs"
	"specasan/internal/workloads"
)

// runFingerprint runs a machine and flattens everything observable into
// one comparable string: run shape, the merged counter set, every core's
// architectural end state and console output, the oracle's leak record,
// the full per-core event traces (hashed), and the metrics histograms.
func runFingerprint(t *testing.T, build func(t *testing.T) *Machine, budget uint64) string {
	t.Helper()
	return fingerprint(build(t), budget)
}

// fingerprint is runFingerprint on an already built machine. It touches no
// *testing.T, so it may run on any goroutine.
func fingerprint(m *Machine, budget uint64) string {
	tr := obs.NewTracer(len(m.Cores), 0)
	met := obs.NewMetrics(len(m.Cores))
	m.AttachObs(tr, met)
	res := m.Run(budget)

	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d committed=%d timedOut=%v faulted=%v faultCore=%d\n",
		res.Cycles, res.Committed, res.TimedOut, res.Faulted, res.FaultCore)
	if res.Err != nil {
		fmt.Fprintf(&b, "simErr=%v\n", res.Err)
	}
	fmt.Fprintf(&b, "stats=%s\n", res.Stats)
	for i := range m.Cores {
		c, st := m.Cores[i], res.CoreStatuses[i]
		fmt.Fprintf(&b, "core%d: halted=%v faulted=%v faultPC=%#x timedOut=%v committed=%d lastCommit=%d exit=%d\n",
			i, st.Halted, st.Faulted, st.FaultPC, st.TimedOut, st.Committed, st.LastCommit, c.ExitCode)
		fmt.Fprintf(&b, "core%d: regs=%v flags=%v output=%q stats=%s\n",
			i, c.cRegs, c.cFlags, c.Output, c.Stats)
	}
	fmt.Fprintf(&b, "secretReads=%d leaks=%v\n", m.Oracle.SecretReads, m.Oracle.Events())
	for i := range m.Cores {
		ct := tr.Core(i)
		h := sha256.New()
		for _, ev := range ct.Events() {
			fmt.Fprintf(h, "%d %d %d %d %d\n", ev.Cycle, ev.Seq, ev.PC, ev.Arg, ev.Kind)
		}
		fmt.Fprintf(&b, "trace%d: n=%d dropped=%d h=%s\n",
			i, ct.Recorded(), ct.Dropped(), hex.EncodeToString(h.Sum(nil))[:16])
	}
	fmt.Fprintf(&b, "metrics=%+v\n", met.Record("fp", "fp", res.Cycles, res.Committed).Histograms)
	return b.String()
}

// concurrentCopies is how many identical machines run at once in the
// cross-machine identity tests below.
const concurrentCopies = 2

// checkConcurrentIdentity pins the contract the sweep, chaos and fuzz
// worker pools rely on: machines share no mutable state, so a machine run
// on its own goroutine alongside identical siblings must be bit-identical
// to the same machine run alone. Under -race any state two machines both
// touch is a reported data race.
func checkConcurrentIdentity(t *testing.T, build func(t *testing.T) *Machine, budget uint64) {
	t.Helper()
	ref := runFingerprint(t, build, budget)
	ms := make([]*Machine, concurrentCopies)
	for i := range ms {
		ms[i] = build(t)
	}
	got := make([]string, len(ms))
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func(i int, m *Machine) {
			defer wg.Done()
			got[i] = fingerprint(m, budget)
		}(i, m)
	}
	wg.Wait()
	for i, g := range got {
		if g != ref {
			t.Errorf("machine %d of %d run concurrently diverged from the solo run:\n--- solo ---\n%s\n--- concurrent ---\n%s",
				i, len(got), ref, g)
		}
	}
}

// coherencePingPong is an SPMD kernel that stresses every cross-core
// interaction of the shared memory system: a SWPAL spinlock (atomic
// ownership transfer through the directory), true-sharing stores to one
// line (remote L1D invalidations), reads of lines other cores dirty, a DC
// flush (touches every level), and per-core private work.
const coherencePingPong = `
_start:
    ADR  X9, lock
    ADR  X10, shared
    ADR  X11, private
    LSL  X12, X0, #10      // per-core private slab
    ADD  X11, X11, X12
    MOV  X13, #30          // iterations
loop:
acquire:
    MOV  X1, #1
    SWPAL X1, X2, [X9]
    CBNZ X2, acquire
    LDR  X3, [X10]         // read line the previous owner dirtied
    ADD  X3, X3, #1
    STR  X3, [X10]         // dirty it again (true sharing)
    MOV  X1, #0
    SWPAL X1, X2, [X9]     // release
    STR  X3, [X11]         // private store: core-local traffic
    LDR  X4, [X11]
    AND  X5, X13, #3
    CBZ  X5, flush
    B    next
flush:
    DC   CIVAC, X10        // periodic flush of the contended line
    DSB
next:
    SUB  X13, X13, #1
    CBNZ X13, loop
    SVC  #0
    .org 0x40000
lock:
    .word 0
shared:
    .word 0
    .org 0x48000
private:
    .space 8192
`

func buildCoherence(cores int, mit core.Mitigation) func(t *testing.T) *Machine {
	return func(t *testing.T) *Machine {
		t.Helper()
		prog, err := asm.Assemble(coherencePingPong)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Cores = cores
		m, err := NewMachine(cfg, mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cores; i++ {
			m.Core(i).SetReg(0, uint64(i))
		}
		return m
	}
}

// buildSpectreSPMD runs the Spectre-v1 gadget on every core at once: the
// transient out-of-bounds loads race for the same secret-holding lines,
// so oracle leak recording and ghost-buffer traffic (under GhostMinion)
// come from several cores in the same cycles.
func buildSpectreSPMD(cores int, mit core.Mitigation) func(t *testing.T) *Machine {
	return func(t *testing.T) *Machine {
		t.Helper()
		prog, err := asm.Assemble(specV1Shape)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Cores = cores
		m, err := NewMachine(cfg, mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		m.Img.Tags.SetRange(0x100000, 128, 0xa)
		m.Img.Tags.SetRange(0x100080, 16, 0xb)
		m.Img.WriteU64(0x100080, 0x5ec4e7)
		m.Oracle.MarkSecret(0x100080, 16)
		return m
	}
}

// buildPARSEC builds a real 4-thread PARSEC kernel cell — the machine
// shape the paper's multicore evaluation uses.
func buildPARSEC(name string, mit core.Mitigation) func(t *testing.T) *Machine {
	return func(t *testing.T) *Machine {
		t.Helper()
		spec := workloads.ByName(name)
		if spec == nil {
			t.Fatalf("workload %s missing", name)
		}
		prog, err := spec.Build(mit.MTEEnabled(), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Cores = spec.Threads
		m, err := NewMachine(cfg, mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < spec.Threads; i++ {
			m.Core(i).SetReg(0, uint64(i))
		}
		return m
	}
}

// TestParallelRunByteIdentity runs each machine shape solo and then as
// identical copies on parallel goroutines, the way the sweep pool runs
// cells: same cycles, same counters, same architectural state, same leak
// record, same event traces — at 1, 2, and 4 cores, across mitigations
// that exercise plain caches, SpecASan tag checks, and GhostMinion ghost
// promotion/drop.
func TestParallelRunByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		name   string
		build  func(t *testing.T) *Machine
		budget uint64
	}{
		{"coherence-2core-unsafe", buildCoherence(2, core.Unsafe), 2_000_000},
		{"coherence-4core-unsafe", buildCoherence(4, core.Unsafe), 2_000_000},
		{"coherence-4core-specasan", buildCoherence(4, core.SpecASan), 2_000_000},
		{"spectre-1core-specasan", buildSpectreSPMD(1, core.SpecASan), 300_000},
		{"spectre-2core-unsafe", buildSpectreSPMD(2, core.Unsafe), 300_000},
		{"spectre-4core-specasan", buildSpectreSPMD(4, core.SpecASan), 300_000},
		{"spectre-4core-ghostminion", buildSpectreSPMD(4, core.GhostMinion), 300_000},
		{"parsec-blackscholes-unsafe", buildPARSEC("blackscholes", core.Unsafe), 20_000_000},
		{"parsec-blackscholes-specasan", buildPARSEC("blackscholes", core.SpecASan), 20_000_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkConcurrentIdentity(t, tc.build, tc.budget)
		})
	}
}

// TestParallelDifferentialCorpusByteIdentity runs the differential safety
// net's 64-seed random program corpus as 2-core SPMD machines: both cores
// execute the same generated program, so their stores and MTE tag writes
// collide on the same data granules. Each machine run alongside identical
// copies on parallel goroutines must match its solo run seed by seed.
func TestParallelDifferentialCorpusByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1000); seed < 1064; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genRandomProgram(rng, seed%2 == 0)
		mit := core.Unsafe
		if seed%3 == 0 {
			mit = core.SpecASan
		}
		build := func(t *testing.T) *Machine {
			prog, err := asm.Assemble(src)
			if err != nil {
				t.Fatalf("corpus program does not assemble: %v", err)
			}
			cfg := core.DefaultConfig()
			cfg.Cores = 2
			m, err := NewMachine(cfg, mit, prog)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		t.Run(fmt.Sprintf("seed%d/%v", seed, mit), func(t *testing.T) {
			checkConcurrentIdentity(t, build, 500_000)
		})
	}
}

// TestMultiCoreRunNamesTimedOutCore pins per-core timeout attribution on a
// multi-core machine: when core 1 is still spinning at the budget while
// core 0 halted long ago, the timeout must name core 1 in CoreStatuses —
// with its LastCommit — not report a machine-wide anonymous timeout.
func TestMultiCoreRunNamesTimedOutCore(t *testing.T) {
	prog, err := asm.Assemble(`
_start:
    CBZ  X0, done
spin:
    ADD  X1, X1, #1
    B    spin
done:
    SVC  #0
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Cores = 2
	m, err := NewMachine(cfg, core.Unsafe, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Core(0).SetReg(0, 0)
	m.Core(1).SetReg(0, 1)
	m.Watchdog = nil // the spin loop commits forever; let the budget end it
	res := m.Run(20_000)
	if !res.TimedOut {
		t.Fatalf("expected timeout, got %v", res)
	}
	if got := res.TimedOutCores(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("timed-out cores = %v, want [1]", got)
	}
	st := res.CoreStatuses
	if !st[0].Halted || st[0].TimedOut {
		t.Fatalf("core 0 should have halted cleanly: %+v", st[0])
	}
	if !st[1].TimedOut || st[1].LastCommit == 0 {
		t.Fatalf("core 1 should be timed out with a LastCommit: %+v", st[1])
	}
	if st[1].LastCommit < st[0].LastCommit {
		t.Fatalf("spinning core's LastCommit (%d) should be at least the halted core's (%d)",
			st[1].LastCommit, st[0].LastCommit)
	}
}

// TestMultiCoreWatchdogNamesWedgedCore: a commit-stage freeze on one core
// of a multi-core machine must produce a structured verdict naming that
// core, with the healthy cores untouched.
func TestMultiCoreWatchdogNamesWedgedCore(t *testing.T) {
	prog := wedgeProg(t)
	cfg := core.DefaultConfig()
	cfg.Cores = 2
	m, err := NewMachine(cfg, core.Unsafe, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Watchdog.StallCycles = 2000
	m.Core(1).InjectWedge()
	res := m.Run(50_000_000)
	if res.Err == nil {
		t.Fatalf("wedged core not caught: %v", res)
	}
	if res.Err.Kind != "commit-stall" || res.Err.Core != 1 {
		t.Fatalf("wrong verdict: %v", res.Err)
	}
	if res.TimedOut {
		t.Fatal("watchdog verdict should supersede the timeout flag")
	}
	if len(res.CoreStatuses) != 2 {
		t.Fatalf("core statuses missing: %+v", res.CoreStatuses)
	}
	if res.CoreStatuses[0].LastCommit == 0 {
		t.Fatalf("healthy core 0 should have commit progress: %+v", res.CoreStatuses[0])
	}
	if res.CoreStatuses[1].Committed != 0 {
		t.Fatalf("wedged core 1 committed %d instructions past the freeze", res.CoreStatuses[1].Committed)
	}
}

// TestMachineStepAllocsTracedMultiCore extends the zero-alloc contract to
// a 4-core PARSEC machine: with a tracer and metrics attached, a
// steady-state machine cycle must still not allocate.
func TestMachineStepAllocsTracedMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := buildPARSEC("blackscholes", core.Unsafe)(t)
	m.AttachObs(obs.NewTracer(len(m.Cores), 0), obs.NewMetrics(len(m.Cores)))
	for i := 0; i < 2000 && !m.Done(); i++ {
		m.Step()
	}
	if m.Done() {
		t.Fatal("machine halted during warmup; enlarge the workload scale")
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if !m.Done() {
			m.Step()
		}
	})
	if allocs > 0.01 {
		t.Errorf("4-core traced Machine.Step allocates %.3f objects/step in steady state, want ~0", allocs)
	}
}
