package cpu

import (
	"fmt"
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
)

func wedgeProg(t *testing.T) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(`
_start:
    MOV  X1, #0
loop:
    ADD  X1, X1, #1
    CMP  X1, #100000000
    B.LT loop
    SVC  #0
`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// A commit-stage freeze must be caught by the watchdog as a structured
// SimError carrying a pipeview snapshot — not burn the MaxCycles budget and
// report an anonymous timeout.
func TestWatchdogCatchesWedgedPipeline(t *testing.T) {
	m, err := NewMachine(core.DefaultConfig(), core.Unsafe, wedgeProg(t))
	if err != nil {
		t.Fatal(err)
	}
	m.Watchdog.StallCycles = 2000 // keep the test fast
	m.Core(0).InjectWedge()
	res := m.Run(50_000_000)
	if res.Err == nil {
		t.Fatalf("wedged pipeline not caught: %v", res)
	}
	if res.Err.Kind != "commit-stall" || res.Err.Core != 0 {
		t.Fatalf("wrong verdict: %v", res.Err)
	}
	if res.TimedOut {
		t.Fatal("watchdog verdict should supersede the timeout flag")
	}
	if res.Cycles > 1_000_000 {
		t.Fatalf("watchdog fired only after %d cycles", res.Cycles)
	}
	if !strings.Contains(res.Err.Snapshot, "rob head=") ||
		!strings.Contains(res.Err.Snapshot, "seq=") {
		t.Fatalf("snapshot missing pipeline state:\n%s", res.Err.Snapshot)
	}
	if !strings.Contains(res.Err.Error(), "commit-stall") {
		t.Fatalf("Error() = %q", res.Err.Error())
	}
}

// Corrupted LSQ bookkeeping (here: a leaked IQ slot) must be caught as an
// invariant violation rather than surfacing later as a mystery deadlock.
func TestWatchdogCatchesCounterCorruption(t *testing.T) {
	m, err := NewMachine(core.DefaultConfig(), core.Unsafe, wedgeProg(t))
	if err != nil {
		t.Fatal(err)
	}
	m.Watchdog.CheckEvery = 64
	wedged := false
	m.PerCycle = func(cycle uint64) {
		if cycle == 1000 && !wedged {
			m.Core(0).iqCount += 3 // simulate a counter leak
			wedged = true
		}
	}
	res := m.Run(1_000_000)
	if res.Err == nil || res.Err.Kind != "lsq-invariant" {
		t.Fatalf("counter corruption not caught: %v", res)
	}
}

// A healthy run must pass under the watchdog without a verdict.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	prog, err := asm.Assemble(`
_start:
    MOV  X1, #0
loop:
    ADD  X1, X1, #1
    CMP  X1, #2000
    B.LT loop
    SVC  #0
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(core.DefaultConfig(), core.SpecASan, prog)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(10_000_000)
	if res.Err != nil {
		t.Fatalf("false positive: %v\n%s", res.Err, res.Err.Snapshot)
	}
	if res.TimedOut || res.Faulted {
		t.Fatalf("run did not complete: %v", res)
	}
	if len(res.CoreStatuses) != 1 || !res.CoreStatuses[0].Halted {
		t.Fatalf("core status wrong: %+v", res.CoreStatuses)
	}
}

// A timed-out multicore run must name the cores that were still running.
func TestRunReportsTimedOutCores(t *testing.T) {
	// X0 = thread id: core 0 exits immediately, core 1 spins forever.
	prog, err := asm.Assemble(`
_start:
    CBZ  X0, done
spin:
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
	m.Core(1).SetReg(1, 1) // X1 unused; ids come via X0
	m.Core(0).SetReg(0, 0)
	m.Core(1).SetReg(0, 1)
	m.Watchdog = nil // the spin loop commits forever; let the budget end it
	res := m.Run(20_000)
	if !res.TimedOut {
		t.Fatalf("expected timeout: %v", res)
	}
	cores := res.TimedOutCores()
	if len(cores) != 1 || cores[0] != 1 {
		t.Fatalf("TimedOutCores = %v, want [1]", cores)
	}
	if !res.CoreStatuses[0].Halted || res.CoreStatuses[1].TimedOut != true {
		t.Fatalf("statuses: %+v", res.CoreStatuses)
	}
	if !strings.Contains(res.String(), "timedOutCores=[1]") {
		t.Fatalf("String() = %q", res.String())
	}
}

// Run gates watchdog scans by comparing the cycle against the next multiple
// of CheckEvery instead of calling Check every cycle. It must scan exactly
// the cycles Check would: the verdict (kind, core, cycle, detail) has to
// match a Step+Check reference loop for power-of-two and other intervals,
// with idle skipping on and off, and across a Run that starts mid-interval.
// The off-edge program has fetch run off the end of the code, so skipIdle
// jumps up to each watchdog boundary; the wedged one never skips. With
// skipping on or off, both programs must reach a commit-stall verdict.
func TestRunWatchdogScansMatchCheck(t *testing.T) {
	offEdge, err := asm.Assemble(`
_start:
    ADD  X1, X1, #1
`)
	if err != nil {
		t.Fatal(err)
	}
	progs := []struct {
		name  string
		prog  *asm.Program
		wedge bool
	}{{"wedged", wedgeProg(t), true}, {"off-edge", offEdge, false}}
	const budget = 200_000
	build := func(t *testing.T, prog *asm.Program, wedge, skip bool, every uint64) *Machine {
		m, err := NewMachine(core.DefaultConfig(), core.Unsafe, prog)
		if err != nil {
			t.Fatal(err)
		}
		m.SkipIdle = skip
		m.Watchdog.StallCycles = 2000
		m.Watchdog.CheckEvery = every
		if wedge {
			m.Core(0).InjectWedge()
		}
		return m
	}
	verdict := func(cycles uint64, e *SimError) string {
		if e == nil {
			return fmt.Sprintf("cycles=%d no verdict", cycles)
		}
		return fmt.Sprintf("cycles=%d %s core=%d cycle=%d %s", cycles, e.Kind, e.Core, e.Cycle, e.Detail)
	}
	for _, p := range progs {
		for _, every := range []uint64{1, 7, 64, 1000, 1024} {
			for _, skip := range []bool{true, false} {
				name := fmt.Sprintf("%s/every%d/skip=%v", p.name, every, skip)
				t.Run(name, func(t *testing.T) {
					ref := build(t, p.prog, p.wedge, skip, every)
					var refErr *SimError
					for _, limit := range []uint64{1500, budget} {
						ref.skipLimit = limit
						for refErr == nil && ref.cycle < limit && !ref.Done() {
							ref.Step()
							refErr = ref.Watchdog.Check(ref)
						}
					}
					m := build(t, p.prog, p.wedge, skip, every)
					res := m.Run(1500)
					if res.Err == nil {
						res = m.Run(budget)
					}
					want, got := verdict(ref.cycle, refErr), verdict(res.Cycles, res.Err)
					if refErr == nil {
						t.Fatalf("reference loop reached no verdict: %s", want)
					}
					if got != want {
						t.Errorf("Run verdict differs from the Step+Check loop:\n got: %s\nwant: %s", got, want)
					}
				})
			}
		}
	}
}
