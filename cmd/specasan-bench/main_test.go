package main

import (
	"flag"
	"strings"
	"testing"
)

// TestFlagBindingHashes pins the effective scenario of representative
// command lines to the hashes the flag handling this binder replaced
// produced. Without -scenario the pin is the default (table2) scenario
// carrying the run options -fig/-all hand the harness. The figure6 identity
// -perf stamps on its history entry is pinned too, as is the pool size of
// its sweep legs, which -workers sets (formerly -sweep-workers; the
// "-scale 0.1" row pins the old "-perf -scale 0.1 -skip-idle=false
// -sweep-workers 3"). Every path validates what it resolves, -fig/-all/-perf
// included: windowed sampling without a window size is an error, not a run
// with 0-instruction windows.
func TestFlagBindingHashes(t *testing.T) {
	for _, tc := range []struct {
		args           []string
		hash, perfHash string
		workers        int
	}{
		{nil, "ec596482e17e6dc7", "08e5082201dd68c5", 0},
		{[]string{"-scale", "0.3", "-workers", "3", "-skip-idle=false", "-fast-forward", "1000",
			"-sample-windows", "3", "-sample-window-insts", "500", "-warmup-cycles", "77"},
			"34e43391203a9fdd", "6840d85d1f9692b1", 3},
		{[]string{"-scale", "0.1", "-skip-idle=false", "-workers", "3"},
			"", "fef30e5f5ef57e1f", 3},
		{[]string{"-scenario", "figure6"}, "08e5082201dd68c5", "", 0},
		{[]string{"-scenario", "figure6", "-scale", "0.02"}, "e05a97838f6bb10b", "", 0},
		{[]string{"-scenario", "../../examples/scenarios/dom-vs-specasan.json", "-scale", "1"},
			"c6d2d46862ffc038", "", 0},
		{[]string{"-scenario", "../../examples/scenarios/figure6-quick.json", "-workers", "0"},
			"140c2fc45b244b07", "", 0},
	} {
		fs := flag.NewFlagSet("specasan-bench", flag.ContinueOnError)
		k := bindKnobs(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		s, err := resolve(k)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if got := s.Hash(); tc.hash != "" && got != tc.hash {
			t.Errorf("%q: hash %s, want %s", tc.args, got, tc.hash)
		}
		if got := perfScenarioHash(s.Run); tc.perfHash != "" && got != tc.perfHash {
			t.Errorf("%q: -perf hash %s, want %s", tc.args, got, tc.perfHash)
		}
		if s.Run.Workers != tc.workers {
			t.Errorf("%q: workers %d, want %d", tc.args, s.Run.Workers, tc.workers)
		}
	}
	for _, tc := range []struct {
		args []string
		err  string
	}{
		{[]string{"-fig", "6", "-scale", "0.01", "-sample-windows", "4"},
			"sample_window_insts must be > 0 when sample_windows > 1"},
	} {
		fs := flag.NewFlagSet("specasan-bench", flag.ContinueOnError)
		k := bindKnobs(fs)
		fs.Int("fig", 0, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if _, err := resolve(k); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%q: error %v, want %q", tc.args, err, tc.err)
		}
	}
}
