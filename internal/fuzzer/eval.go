package fuzzer

import (
	"fmt"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/isa"
)

// goldenBudget bounds the reference walk of one candidate, in instructions.
// Generated programs retire a few hundred; anything near this bound is not a
// usable PoC.
const goldenBudget = 200_000

// MitRow is one (candidate, mitigation) cell: the oracle outcome next to the
// claims-model judgment.
type MitRow struct {
	Mitigation string `json:"mitigation"`
	Claim      string `json:"claim"`
	Reason     string `json:"reason,omitempty"`

	Leaked      bool           `json:"leaked"`
	Faulted     bool           `json:"faulted,omitempty"`
	TimedOut    bool           `json:"timed_out,omitempty"`
	SecretReads uint64         `json:"secret_reads,omitempty"`
	Channels    map[string]int `json:"channels,omitempty"`
}

// Evaluation is the full judgment of one candidate: per-mitigation rows plus
// the triage lists the loop acts on. It is the store-cached unit — re-runs
// of the same candidate under the same claims model are cache hits.
type Evaluation struct {
	Hash          string `json:"hash"`
	Valid         bool   `json:"valid"`
	InvalidReason string `json:"invalid_reason,omitempty"`

	Rows []MitRow `json:"rows,omitempty"`

	// Counterexamples: mitigations whose bits claim this shape blocked, yet
	// the oracle saw a leak and the run cross-checked clean against golden.
	Counterexamples []string `json:"counterexamples,omitempty"`
	// KnownGapLeaks: mitigations whose documented exception this candidate
	// exercises — the expected, Table-1-◐-style finds.
	KnownGapLeaks []string `json:"known_gap_leaks,omitempty"`
	// Diverged: mitigations under which the machine's architectural state
	// disagreed with the golden interpreter. A "leak" on top of divergence
	// is a simulator bug, not an attack; these route to the differential
	// corpus.
	Diverged []string `json:"diverged,omitempty"`
}

// Flagged reports whether the evaluation produced anything worth minimising.
func (e *Evaluation) Flagged() bool {
	return len(e.Counterexamples) > 0 || len(e.KnownGapLeaks) > 0
}

// goldenState is one reference walk: the interpreter (for memory
// comparisons) and its result.
type goldenState struct {
	ip  *golden.Interp
	res *golden.Result
}

func runGolden(c *Candidate, prog *asm.Program, mteOn bool) *goldenState {
	ip := golden.New(prog)
	ip.MTEOn = mteOn
	ip.TagSeed = cpu.TagSeedBase
	c.Setup.ApplyImage(ip.Mem)
	return &goldenState{ip: ip, res: ip.Run(goldenBudget)}
}

// EvaluateCandidate runs c under every mitigation in mits, judges each
// outcome against the claims model, and architecturally cross-checks every
// flagged leak against the golden interpreter.
func EvaluateCandidate(c *Candidate, mits []core.Mitigation) *Evaluation {
	ev := &Evaluation{Hash: c.Hash()}
	prog, err := asm.Assemble(c.Source)
	if err != nil {
		ev.InvalidReason = fmt.Sprintf("assemble: %v", err)
		return ev
	}

	// The reference walks: a candidate must terminate cleanly (no fault, no
	// budget exhaustion) in both MTE modes to be a usable PoC — committed-
	// path behaviour is the victim's own program and must be benign.
	gold := map[bool]*goldenState{
		false: runGolden(c, prog, false),
		true:  runGolden(c, prog, true),
	}
	for _, mode := range []bool{false, true} {
		if r := gold[mode].res.Reason; r != golden.StopExit {
			ev.InvalidReason = fmt.Sprintf("golden (mte=%v) stopped with %v at pc %#x", mode, r, gold[mode].res.PC)
			return ev
		}
	}
	ev.Valid = true

	variant := c.Variant()
	for _, mit := range mits {
		tier, reason := Claim(mit, c)
		out, err := attacks.RunVariant(variant, mit)
		if err != nil {
			// The source assembled above; a per-mitigation build error is
			// structural and poisons the whole candidate.
			ev.Valid = false
			ev.InvalidReason = fmt.Sprintf("%v: %v", mit, err)
			return ev
		}
		row := MitRow{
			Mitigation: mit.String(), Claim: tier.String(), Reason: reason,
			Leaked: out.Leaked, Faulted: out.Faulted, TimedOut: out.TimedOut,
			SecretReads: out.SecretReads,
		}
		if len(out.Events) > 0 {
			row.Channels = make(map[string]int, len(out.Events))
			for ch, n := range out.Events {
				row.Channels[ch.String()] += n
			}
		}
		ev.Rows = append(ev.Rows, row)

		switch {
		case out.Faulted || out.TimedOut:
			// Golden exits cleanly under both MTE modes, so a fault or a
			// wedge under any mitigation is an architectural divergence.
			ev.Diverged = append(ev.Diverged, mit.String())
		case out.Leaked && tier >= ClaimKnownGap:
			// Every flagged leak is cross-checked: a leak riding on wrong
			// architectural state is a simulator bug, not an attack.
			if crossCheck(c, prog, mit, gold[mit.MTEEnabled()]) != nil {
				ev.Diverged = append(ev.Diverged, mit.String())
			} else if tier == ClaimBlocked {
				ev.Counterexamples = append(ev.Counterexamples, mit.String())
			} else {
				ev.KnownGapLeaks = append(ev.KnownGapLeaks, mit.String())
			}
		}
	}
	return ev
}

// crossCheck re-runs the candidate on the cycle-accurate machine under mit
// and compares final architectural state — registers, program output, every
// program data byte plus the secret region — against the golden walk.
// Returns nil when bit-identical.
func crossCheck(c *Candidate, prog *asm.Program, mit core.Mitigation, g *goldenState) error {
	m, err := cpu.NewMachine(core.DefaultConfig(), mit, prog)
	if err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if err := c.Setup.Apply(m, prog); err != nil {
		return err
	}
	res := m.Run(evalMaxCycles)
	if res.TimedOut || res.Err != nil {
		return fmt.Errorf("machine inconclusive: %v", res)
	}
	if res.Faulted {
		return fmt.Errorf("machine faulted at %#x, golden exited cleanly", m.Core(0).FaultPC)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if r == isa.XZR {
			continue
		}
		if got, want := m.Core(0).Reg(r), g.res.Regs[r]; got != want {
			return fmt.Errorf("%v = %#x, golden %#x", r, got, want)
		}
	}
	if string(m.Core(0).Output) != string(g.res.Output) {
		return fmt.Errorf("output %q, golden %q", m.Core(0).Output, g.res.Output)
	}
	for _, d := range prog.Data {
		for i := range d.Bytes {
			a := d.Addr + uint64(i)
			if got, want := m.Img.ByteAt(a), g.ip.Mem.ByteAt(a); got != want {
				return fmt.Errorf("mem[%#x] = %d, golden %d", a, got, want)
			}
		}
	}
	for a := uint64(attacks.SecretAddr); a < attacks.SecretAddr+attacks.SecretSize; a++ {
		if got, want := m.Img.ByteAt(a), g.ip.Mem.ByteAt(a); got != want {
			return fmt.Errorf("secret[%#x] = %d, golden %d", a, got, want)
		}
	}
	return nil
}
