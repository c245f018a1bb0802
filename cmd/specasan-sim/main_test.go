package main

import (
	"flag"
	"testing"
)

// TestFlagBindingHashes pins the effective scenario of representative
// command lines. Each hash is the one the flag ladder this binder replaced
// produced for the same arguments, so flag handling cannot drift from the
// identities already recorded in metrics, stores and perf history. (With no
// workload flag the command refuses to run; the pin is the scenario it
// would have resolved.)
func TestFlagBindingHashes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		hash string
	}{
		{nil, "094d92e04d654f07"},
		{[]string{"-bench", "541.leela_r", "-mitigation", "STT", "-scale", "0.3", "-max-cycles", "12345",
			"-skip-idle=false", "-fast-forward", "1000", "-sample-windows", "3",
			"-sample-window-insts", "500", "-warmup-cycles", "77"}, "c54b40a0d6e9e320"},
		{[]string{"-file", "prog.s", "-mitigation", "SpecASan"}, "6ca6f1e257e002dc"},
		{[]string{"-scenario", "figure6"}, "08e5082201dd68c5"},
		{[]string{"-scenario", "figure6", "-scale", "0.02"}, "e05a97838f6bb10b"},
		{[]string{"-scenario", "../../examples/scenarios/big-l1d.json", "-scale", "1"}, "737249b84d094264"},
	} {
		fs := flag.NewFlagSet("specasan-sim", flag.ContinueOnError)
		k, _, _ := bindKnobs(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		s, err := k.Resolve()
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if got := s.Hash(); got != tc.hash {
			t.Errorf("%q: hash %s, want %s", tc.args, got, tc.hash)
		}
	}
}
