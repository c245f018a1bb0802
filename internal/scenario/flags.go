package scenario

import (
	"flag"
	"strings"
	"time"
)

// Flags binds command-line flags onto scenario fields: each knob is declared
// once — flag name, default, usage, and the field it sets — and Resolve
// layers the bound flags over the effective scenario. The contract is the
// same on every CLI:
//
//   - without -scenario the base preset is the starting point and every
//     bound flag applies, defaults included, so a flag-only command line
//     describes exactly the scenario its flags spell out;
//   - with -scenario the named preset or file is the starting point and only
//     the flags the user typed override it.
type Flags struct {
	fs       *flag.FlagSet
	base     string
	scenario *string
	knobs    []knob
}

type knob struct {
	name  string
	apply func(*Scenario)
}

// NewFlags registers -scenario on fs (with the given usage) and returns a
// binder whose flags layer over the preset named base.
func NewFlags(fs *flag.FlagSet, base, scenarioUsage string) *Flags {
	return &Flags{fs: fs, base: base, scenario: fs.String("scenario", "", scenarioUsage)}
}

// Scenario returns the -scenario argument ("" when not given).
func (f *Flags) Scenario() string { return *f.scenario }

// Resolve returns the effective scenario once fs has been parsed. A loaded
// scenario without a chaos or fuzz section takes the base preset's, so a
// campaign tool run on a plain sweep scenario keeps its own defaults. The
// result is not validated: callers that run it call Validate.
func (f *Flags) Resolve() (*Scenario, error) {
	s, _ := Preset(f.base)
	all := *f.scenario == ""
	if !all {
		loaded, err := Load(*f.scenario)
		if err != nil {
			return nil, err
		}
		if loaded.Chaos == nil {
			loaded.Chaos = s.Chaos
		}
		if loaded.Fuzz == nil {
			loaded.Fuzz = s.Fuzz
		}
		s = loaded
	}
	typed := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { typed[fl.Name] = true })
	for _, k := range f.knobs {
		if all || typed[k.name] {
			k.apply(s)
		}
	}
	return s, nil
}

func bind[T any](f *Flags, name string, p *T, set func(*Scenario, T)) *T {
	f.knobs = append(f.knobs, knob{name, func(s *Scenario) { set(s, *p) }})
	return p
}

// Float64 binds a float64 flag.
func (f *Flags) Float64(name string, value float64, usage string, set func(*Scenario, float64)) *float64 {
	return bind(f, name, f.fs.Float64(name, value, usage), set)
}

// Uint64 binds a uint64 flag.
func (f *Flags) Uint64(name string, value uint64, usage string, set func(*Scenario, uint64)) *uint64 {
	return bind(f, name, f.fs.Uint64(name, value, usage), set)
}

// Int binds an int flag.
func (f *Flags) Int(name string, value int, usage string, set func(*Scenario, int)) *int {
	return bind(f, name, f.fs.Int(name, value, usage), set)
}

// Bool binds a bool flag.
func (f *Flags) Bool(name string, value bool, usage string, set func(*Scenario, bool)) *bool {
	return bind(f, name, f.fs.Bool(name, value, usage), set)
}

// String binds a string flag.
func (f *Flags) String(name, value, usage string, set func(*Scenario, string)) *string {
	return bind(f, name, f.fs.String(name, value, usage), set)
}

// List binds a comma-separated list flag: parts are trimmed and empty parts
// dropped, so an empty value sets nil (which list fields read as "default
// set").
func (f *Flags) List(name, value, usage string, set func(*Scenario, []string)) *string {
	return bind(f, name, f.fs.String(name, value, usage),
		func(s *Scenario, v string) { set(s, splitCSV(v)) })
}

// Duration binds a duration flag.
func (f *Flags) Duration(name string, value time.Duration, usage string, set func(*Scenario, time.Duration)) *time.Duration {
	return bind(f, name, f.fs.Duration(name, value, usage), set)
}

// DetailFlags binds the run knobs shared by the single-run and sweep tools:
// idle skipping and fast-forward sampling.
func (f *Flags) DetailFlags() {
	f.Bool("skip-idle", true, "event-driven idle-cycle skipping (exactness-preserving; off walks every cycle)",
		func(s *Scenario, v bool) { s.Run.SkipIdle = v })
	f.Uint64("fast-forward", 0,
		"fast-forward this many instructions functionally before detailed simulation (0 = fully detailed; committed counts and output stay exact, cycles become an estimate)",
		func(s *Scenario, v uint64) { s.Run.FastForwardInsts = v })
	f.Int("sample-windows", 0,
		"simulate this many evenly-spaced detailed windows and extrapolate cycles from their pooled IPC (requires -sample-window-insts; <=1 = tail mode / off)",
		func(s *Scenario, v int) { s.Run.SampleWindows = v })
	f.Uint64("sample-window-insts", 0, "instructions per detailed window for -sample-windows",
		func(s *Scenario, v uint64) { s.Run.SampleWindowInsts = v })
	f.Uint64("warmup-cycles", 0, "detailed warmup cycles excluded before each sampled measurement (0 = default 2000)",
		func(s *Scenario, v uint64) { s.Run.WarmupCycles = v })
}

func splitCSV(csv string) []string {
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
