package main

import (
	"flag"
	"testing"
)

// TestFlagBindingHashes pins the effective scenario of representative
// command lines to the hashes the flag ladder this binder replaced produced
// for the same arguments.
func TestFlagBindingHashes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		hash string
	}{
		{nil, "ecebe950ee150199"},
		{[]string{"-seeds", "3", "-seed0", "5", "-kinds", "latency,lfb-stall", "-workloads", "505.mcf_r",
			"-mits", "Unsafe,STT", "-rate", "0.05", "-maxlat", "99", "-scale", "0.01",
			"-maxcycles", "777777", "-verdict-seeds", "1", "-workers", "2"}, "79a324df291f4ca9"},
		{[]string{"-scenario", "chaos-smoke"}, "ecebe950ee150199"},
		{[]string{"-scenario", "chaos-smoke", "-rate", "0.1"}, "e456fad956c8e0e4"},
		// A sweep scenario without a chaos section takes chaos-smoke's.
		{[]string{"-scenario", "figure6", "-seeds", "3"}, "7eeedf90fdbced32"},
		{[]string{"-scenario", "../../examples/scenarios/chaos-quick.json", "-seeds", "8"}, "952ba02acc3dd5af"},
	} {
		fs := flag.NewFlagSet("specasan-chaos", flag.ContinueOnError)
		k := bindKnobs(fs)
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
