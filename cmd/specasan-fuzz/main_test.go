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
		{nil, "862946317f6ed195"},
		{[]string{"-seed", "9", "-n", "10", "-budget", "90s", "-workers", "2",
			"-mits", "Unsafe,SpecASan"}, "d5453532b179d089"},
		{[]string{"-scenario", "fuzz-smoke"}, "862946317f6ed195"},
		{[]string{"-scenario", "fuzz-smoke", "-seed", "4"}, "d5889def2ea79e68"},
		// A sweep scenario without a fuzz section takes fuzz-smoke's.
		{[]string{"-scenario", "../../examples/scenarios/figure6-quick.json", "-n", "64"}, "af203aa474f06a01"},
	} {
		fs := flag.NewFlagSet("specasan-fuzz", flag.ContinueOnError)
		k, _ := bindKnobs(fs)
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
