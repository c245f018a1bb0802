package harness

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/mem"
	"specasan/internal/workloads"
)

// windowedOpts are small windowed-sampling options over a multi-window
// program.
func windowedOpts() Options {
	opt := smallOpts()
	opt.Scale = 0.2
	opt.SampleWindows = 3
	opt.SampleWindowInsts = 2000
	return opt
}

// TestWindowPlanThreeConsumers: three untagged mitigations share one plan.
// Each window stays kept until its third consumer has taken it, and every
// consumer gets an image of its own.
func TestWindowPlanThreeConsumers(t *testing.T) {
	spec := workloads.ByName("508.namd_r")
	opt := windowedOpts()
	mits := []core.Mitigation{core.Unsafe, core.Fence, core.STT}
	pm := newPlanMemo()
	var uses []*planUse
	for _, mit := range mits {
		uses = append(uses, pm.enrol(spec, mit, opt))
	}
	if len(pm.entries) != 1 {
		t.Fatalf("three untagged cells enrolled under %d keys, want 1", len(pm.entries))
	}
	p := uses[0].open(spec, mits[0], opt)
	if err := p.verdict(spec, mits[0]); err != nil {
		t.Fatal(err)
	}
	for i, u := range uses[1:] {
		if u.open(spec, mits[i+1], opt) != p {
			t.Fatal("a later consumer built its own plan")
		}
	}
	if len(p.starts) != opt.SampleWindows {
		t.Fatalf("%d window starts, want %d", len(p.starts), opt.SampleWindows)
	}
	for i := range p.starts {
		var sts []*golden.State
		var rings []*golden.TouchRing
		for c, u := range uses {
			st, ring, err := u.take(p, i)
			if err != nil {
				t.Fatalf("window %d consumer %d: %v", i, c, err)
			}
			sts, rings = append(sts, st), append(rings, ring)
			if kept := p.wins[i].st != nil; kept != (c < len(uses)-1) {
				t.Fatalf("window %d after consumer %d: kept=%v", i, c, kept)
			}
		}
		if p.wins[i] != (planWindow{}) {
			t.Fatalf("window %d still held after its last consumer: %+v", i, p.wins[i])
		}
		if rings[0] == nil || rings[0] != rings[1] || rings[1] != rings[2] {
			t.Fatalf("window %d: consumers do not share one frozen ring", i)
		}
		pages := sts[0].Mem.PageAddrs()
		for c := range sts[1:] {
			for _, a := range pages {
				if !bytes.Equal(sts[c+1].Mem.Read(a, mem.PageBytes), sts[0].Mem.Read(a, mem.PageBytes)) {
					t.Fatalf("window %d: consumer %d's image differs from consumer 0's at %#x", i, c+1, a)
				}
			}
		}
		addr := pages[0]
		for c := range sts {
			for d := range sts {
				if c != d && sts[c].Mem == sts[d].Mem {
					t.Fatalf("window %d: consumers %d and %d share an image", i, c, d)
				}
			}
			if sts[c].Insts != p.starts[i] || sts[c].PC != sts[0].PC {
				t.Fatalf("window %d consumer %d: state at %d insts pc %#x, want %d insts pc %#x",
					i, c, sts[c].Insts, sts[c].PC, p.starts[i], sts[0].PC)
			}
		}
		// Writing to one consumer's image, the last consumer's uncopied one
		// included, leaves the others' images unchanged.
		for c := range sts {
			before := make([]uint64, len(sts))
			for d := range sts {
				before[d] = sts[d].Mem.ReadU64(addr)
			}
			sts[c].Mem.WriteU64(addr, ^before[c])
			for d := range sts {
				if d != c && sts[d].Mem.ReadU64(addr) != before[d] {
					t.Fatalf("window %d: a write to consumer %d's image reached consumer %d's", i, c, d)
				}
			}
		}
	}
	if p.ip != nil {
		t.Error("the pass-2 walker outlived the last window")
	}
	for _, u := range uses {
		u.leave()
	}
	if len(pm.entries) != 0 || uses[0].entry.plan != nil {
		t.Fatalf("plan memo not empty after every consumer left: %d entries", len(pm.entries))
	}
}

// TestWindowPlanEarlyLeaveReleases: a consumer that leaves mid-plan gives
// back the windows it did not take, so the remaining consumers still drop
// each window as soon as the last of them has taken it.
func TestWindowPlanEarlyLeaveReleases(t *testing.T) {
	spec := workloads.ByName("508.namd_r")
	opt := windowedOpts()
	pm := newPlanMemo()
	var uses []*planUse
	for _, mit := range []core.Mitigation{core.Unsafe, core.Fence, core.STT} {
		uses = append(uses, pm.enrol(spec, mit, opt))
	}
	p := uses[0].open(spec, core.Unsafe, opt)
	if _, _, err := uses[0].take(p, 0); err != nil {
		t.Fatal(err)
	}
	uses[0].leave() // fails after its first window
	for i := range p.starts {
		for c, u := range uses[1:] {
			if _, _, err := u.take(p, i); err != nil {
				t.Fatalf("window %d consumer %d: %v", i, c+1, err)
			}
		}
		if p.wins[i] != (planWindow{}) {
			t.Fatalf("window %d still held after the remaining consumers took it", i)
		}
	}
	uses[1].leave()
	if len(pm.entries) != 1 {
		t.Fatal("the plan went away while a consumer was still enrolled")
	}
	uses[2].leave()
	if len(pm.entries) != 0 {
		t.Fatalf("%d plans left in the memo", len(pm.entries))
	}
}

// slowSpec runs ~60k instructions around a dependent multiply chain: its
// walk fits an 80k-instruction functional budget (10k cycles), but a
// 20k-instruction detailed window does not fit 10k cycles.
var slowSpec = &workloads.Spec{
	Name:    "slow-mul",
	Threads: 1,
	Source: `
    MOV  X1, #15000
    MOV  X2, #3
loop:
    MUL  X2, X2, X2
    SUB  X1, X1, #1
    ADD  X3, X3, #1
    CBNZ X1, loop
    SVC  #0`,
}

// TestSweepReleasesPlansOnEveryExit: cells that fail before, at or after
// their first window, by a fault, a timeout or a panic, or that are served
// from the store, give back the windows they did not take, and retries walk
// private plans. Every case leaves the sweep's memo empty; each failed
// cell's error names its own mitigation in the text the unshared path
// produced, and each cell that ran reports what it reports alone.
func TestSweepReleasesPlansOnEveryExit(t *testing.T) {
	mits := []core.Mitigation{core.Unsafe, core.Fence, core.STT}
	for _, tc := range []struct {
		name    string
		spec    *workloads.Spec
		opt     func(*testing.T, *Options)
		wantErr string // %v is the mitigation
	}{
		{"fault-in-walk", faultySpec, func(_ *testing.T, o *Options) {},
			"faulty-loop under %v faulted at 0x9000 during functional fast-forward (bad-pc)"},
		{"walk-timeout-retried", spinSpec(), func(_ *testing.T, o *Options) { o.MaxCycles, o.MaxRetries = 10_000, 1 },
			"spin under %v: functional walk: cycle budget exhausted after 320000 instructions"},
		{"window-timeout", slowSpec, func(_ *testing.T, o *Options) { o.MaxCycles, o.MaxRetries = 10_000, 0 },
			"slow-mul under %v: cycle budget exhausted after 10000 cycles (cores [0] still running)"},
		{"window-timeout-retried", slowSpec, func(_ *testing.T, o *Options) { o.MaxCycles, o.MaxRetries = 10_000, 1 }, ""},
		{"store-hit", workloads.ByName("508.namd_r"), func(t *testing.T, o *Options) {
			// One cell is served from the store and leaves without a window.
			cs, _ := testStore(t)
			o.Scale, o.SampleWindowInsts = 0.2, 2000
			o.Store, o.ResultHash = cs, "plan-test"
			if _, _, err := RunCell(workloads.ByName("508.namd_r"), core.Fence, *o); err != nil {
				t.Fatal(err)
			}
		}, ""},
		{"panic-mid-plan", slowSpec, func(_ *testing.T, o *Options) {
			o.MaxCycles = 200_000
			var mu sync.Mutex
			seen := map[core.Mitigation]int{}
			o.Attach = func(_ string, mit core.Mitigation, _ *cpu.Machine) {
				mu.Lock()
				seen[mit]++
				n := seen[mit]
				mu.Unlock()
				if mit != core.Fence && n == 2 {
					panic("injected")
				}
			}
		}, "slow-mul under %v: panic: injected"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := smallOpts()
			opt.SampleWindows = 3
			opt.SampleWindowInsts = 20_000
			opt.Workers = 2
			tc.opt(t, &opt)
			pm := newPlanMemo()
			sw, _ := runSweep([]*workloads.Spec{tc.spec}, mits, opt, pm)
			if len(pm.entries) != 0 {
				t.Fatalf("%d plans left in the memo", len(pm.entries))
			}
			for _, mit := range mits {
				err := sw.Err(tc.spec.Name, mit)
				want := tc.wantErr
				if tc.name == "panic-mid-plan" && mit == core.Fence {
					want = "" // the one cell the hook spares
				}
				if want == "" {
					alone := opt
					alone.Attach = nil
					r, _, aerr := RunCell(tc.spec, mit, alone)
					if got, w := cellLine(sw.Results[tc.spec.Name][mit], err), cellLine(r, aerr); got != w {
						t.Errorf("%v: %s, alone %s", mit, got, w)
					}
					continue
				}
				if want = fmt.Sprintf(want, mit); err == nil ||
					!(err.Error() == want || strings.HasPrefix(err.Error(), want+"\n")) {
					t.Errorf("%v: error %v, want %q", mit, err, want)
				}
			}
		})
	}
}

// cellLine renders everything a cell reports but its log and metrics.
func cellLine(r *PerfResult, err error) string {
	if err != nil {
		return fmt.Sprintf("err=%v\n", err)
	}
	return fmt.Sprintf("cycles=%d committed=%d restricted=%d output=%q sampled=%+v stats=%s\n",
		r.Cycles, r.Committed, r.Restricted, r.Output, *r.Sampled, FormatStats(r.Stats))
}

// sweepLines renders a sweep's cells in cell order.
func sweepLines(sw *Sweep) string {
	var b strings.Builder
	for _, bench := range sw.Benchmarks {
		for _, mit := range sw.Mitigations {
			b.WriteString(cellLine(sw.Results[bench][mit], sw.Err(bench, mit)))
		}
	}
	return b.String()
}

// standaloneCells runs every cell alone through RunCell (a private plan
// each) and returns what they report, with their log and metrics streams
// concatenated in cell order.
func standaloneCells(specs []*workloads.Spec, mits []core.Mitigation, opt Options) (lines, log, met string) {
	var b, lb, mb bytes.Buffer
	opt.Log, opt.Metrics = &lb, &mb
	for _, spec := range specs {
		for _, mit := range mits {
			r, _, err := RunCell(spec, mit, opt)
			b.WriteString(cellLine(r, err))
		}
	}
	return b.String(), lb.String(), mb.String()
}
