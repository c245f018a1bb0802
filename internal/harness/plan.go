package harness

// The functional side of windowed sampling. A cell's functional walk depends
// only on its program (workload, scale, MTE on/off) and its walk budget, so
// in a sweep the four untagged Figure-6 mitigations would walk the same
// program to the same window starts. A windowPlan does that walk once: pass
// 1 fixes the total and the exact output, and a progressive pass 2 stops at
// each window start to keep a golden.State snapshot and a frozen copy of the
// touch ring. The cells sharing a plan (its consumers) take each window in
// turn; a window is dropped as soon as its last consumer has taken it, so a
// plan holds at most k live windows and usually far fewer.
//
// RunSweep enrols its windowed cells in a per-sweep planMemo before any cell
// runs, so each plan knows its consumer count up front. Any other caller
// (RunCell alone, RunBenchmark, an escalated-budget retry) gets a private
// one-consumer plan through the same code, whose windows go straight to the
// detailed machine without a copy.

import (
	"fmt"
	"sync"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/golden"
	"specasan/internal/workloads"
)

// planKey identifies a functional walk: the program (spec and MTE mode at
// the sweep's scale) and the cycle budget its walk budget derives from.
type planKey struct {
	spec      *workloads.Spec
	mte       bool
	maxCycles uint64
}

func keyOf(spec *workloads.Spec, mit core.Mitigation, opt Options) planKey {
	return planKey{spec, mit.MTEEnabled(), opt.MaxCycles}
}

// planMemo is one sweep's set of shared plans.
type planMemo struct {
	mu      sync.Mutex
	entries map[planKey]*planEntry
}

func newPlanMemo() *planMemo {
	return &planMemo{entries: make(map[planKey]*planEntry)}
}

// planEntry is one key's plan and its consumers.
type planEntry struct {
	mu    sync.Mutex // held while the plan is built
	users int        // consumers that have not left
	plan  *windowPlan
}

// planUse is one consumer's claim on a plan. It takes windows in order and
// must leave, which releases every window it did not take.
type planUse struct {
	memo  *planMemo // nil for a private plan
	key   planKey
	entry *planEntry
	taken int
	left  bool
}

// enrol registers a sweep cell as a consumer of its key's plan. Cells that
// do not run windowed sampling get nil.
func (pm *planMemo) enrol(spec *workloads.Spec, mit core.Mitigation, opt Options) *planUse {
	if opt.SampleWindows <= 1 || spec.Threads != 1 {
		return nil
	}
	k := keyOf(spec, mit, opt)
	pm.mu.Lock()
	defer pm.mu.Unlock()
	e := pm.entries[k]
	if e == nil {
		e = &planEntry{}
		pm.entries[k] = e
	}
	e.users++
	return &planUse{memo: pm, key: k, entry: e}
}

// privateUse is a one-consumer plan outside any memo.
func privateUse() *planUse {
	return &planUse{entry: &planEntry{users: 1}}
}

// open returns the plan, building it if this is its first consumer.
func (u *planUse) open(spec *workloads.Spec, mit core.Mitigation, opt Options) *windowPlan {
	e := u.entry
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plan == nil {
		e.plan = newWindowPlan(spec, mit, opt, e.users)
	}
	return e.plan
}

// take hands over window i; windows are taken in order.
func (u *planUse) take(p *windowPlan, i int) (*golden.State, *golden.TouchRing, error) {
	st, ring, err := p.take(i)
	if err == nil {
		u.taken = i + 1
	}
	return st, ring, err
}

// leave ends the claim: the windows not taken are released and, with the
// last consumer gone, the plan is dropped. Safe to call more than once and
// on nil.
func (u *planUse) leave() {
	if u == nil || u.left {
		return
	}
	u.left = true
	e := u.entry
	e.mu.Lock()
	if e.plan != nil {
		e.plan.release(u.taken)
	}
	e.users--
	gone := e.users == 0
	if gone {
		e.plan = nil
	}
	e.mu.Unlock()
	if gone && u.memo != nil {
		u.memo.mu.Lock()
		delete(u.memo.entries, u.key)
		u.memo.mu.Unlock()
	}
}

// windowPlan is the functional side of windowed sampling for one program.
type windowPlan struct {
	prog     *asm.Program
	buildErr error
	walk     *golden.Result // pass 1: total, exact output, stop reason
	starts   []uint64       // window starts; nil when the walk failed or is too short

	walkMu sync.Mutex     // serialises pass 2; guards ip, cur and broken
	ip     *golden.Interp // pass-2 walker; nil once every window is made
	cur    uint64
	broken error // pass 2 stopped before a window start (an engine bug)

	mu   sync.Mutex // guards made and wins; made also changes under walkMu
	made int
	wins []planWindow
}

// planWindow is one window start's kept state.
type planWindow struct {
	st   *golden.State
	ring *golden.TouchRing
	left int // consumers that have not taken or released it
}

// newWindowPlan builds the program and runs pass 1. consumers sizes every
// window's hold count.
func newWindowPlan(spec *workloads.Spec, mit core.Mitigation, opt Options, consumers int) *windowPlan {
	prog, err := buildSpec(spec, mit, opt)
	if err != nil {
		return &windowPlan{buildErr: err}
	}
	p := &windowPlan{prog: prog, walk: newGolden(prog, mit).Run(functionalBudget(opt.MaxCycles))}
	total, ff := p.walk.Insts, opt.FastForwardInsts
	if p.walk.Reason != golden.StopExit || ff >= total {
		return p
	}
	k := opt.SampleWindows
	span := total - ff
	p.starts = make([]uint64, 0, k)
	for i := 0; i < k; i++ {
		s := ff + span*uint64(i)/uint64(k)
		if n := len(p.starts); n > 0 && s <= p.starts[n-1] {
			continue // span smaller than the window count: drop duplicates
		}
		p.starts = append(p.starts, s)
	}
	p.wins = make([]planWindow, len(p.starts))
	for i := range p.wins {
		p.wins[i].left = consumers
	}
	// The pass-2 walk's touch ring warms each window's caches with the
	// working set live at that window's start.
	p.ip = newGolden(prog, mit)
	p.ip.Touch = golden.NewTouchRing(warmTouches)
	return p
}

// verdict converts the plan's build and pass-1 outcome into the consumer's
// cell error, nil when windows can be taken.
func (p *windowPlan) verdict(spec *workloads.Spec, mit core.Mitigation) error {
	if p.buildErr != nil {
		return p.buildErr
	}
	switch p.walk.Reason {
	case golden.StopExit:
	case golden.StopMaxInsts:
		return fmt.Errorf("%s under %v: functional walk: %w after %d instructions",
			spec.Name, mit, ErrTimedOut, p.walk.Insts)
	default:
		return ffFaultErr(spec, mit, p.walk)
	}
	if p.starts == nil {
		return errSampleTooShort
	}
	return nil
}

// take returns window i for one consumer: the kept image itself to the last
// consumer, a private copy of it to the others.
func (p *windowPlan) take(i int) (*golden.State, *golden.TouchRing, error) {
	p.mu.Lock()
	ready := i < p.made
	p.mu.Unlock()
	if !ready {
		if err := p.walkTo(i); err != nil {
			return nil, nil, err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w := &p.wins[i]
	st, ring := w.st, w.ring
	if w.left--; w.left == 0 {
		*w = planWindow{}
		return st, ring, nil
	}
	cp := *st
	cp.Mem = st.Mem.Clone()
	return &cp, ring, nil
}

// walkTo advances pass 2 until window i is made. Consumers take windows in
// order, so whoever asks for window i holds it, and every earlier window is
// made already.
func (p *windowPlan) walkTo(i int) error {
	p.walkMu.Lock()
	defer p.walkMu.Unlock()
	for p.made <= i {
		if p.broken != nil {
			return p.broken
		}
		j := p.made
		if s := p.starts[j]; s > p.cur {
			g := p.ip.Run(s - p.cur)
			if g.Reason != golden.StopMaxInsts {
				// Pass 1 ran the program cleanly past s, so anything else
				// is an engine bug.
				p.broken = fmt.Errorf("functional walk stopped early at %d insts (%v)",
					p.cur+g.Insts, g.Reason)
				p.ip = nil
				return p.broken
			}
			p.cur = s
		}
		st, ring := p.ip.Snapshot(), p.ip.Touch.Frozen()
		p.mu.Lock()
		p.wins[j].st, p.wins[j].ring = st, ring
		p.made++
		p.mu.Unlock()
	}
	if p.made == len(p.starts) {
		p.ip = nil
	}
	return nil
}

// release drops one consumer's hold on windows from on.
func (p *windowPlan) release(from int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := from; i < len(p.wins); i++ {
		w := &p.wins[i]
		if w.left--; w.left == 0 {
			*w = planWindow{}
		}
	}
}
