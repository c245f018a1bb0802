package harness

import (
	"testing"

	"specasan/internal/core"
	"specasan/internal/workloads"
)

// timingPin is a (cycles, committed) pair captured from the simulator before
// the O(1) rename/wakeup structures replaced the per-instruction window
// scans (scale 0.05, default config).
type timingPin struct {
	cycles    uint64
	committed uint64
}

// TestTimingPins asserts the incremental rename/wakeup pipeline is
// timing-EQUIVALENT to the linear scans it replaced: the optimization may
// only change host speed, never a single simulated cycle. Any drift here is
// a behaviour change, not a perf win — fix the structures, do not update
// the pins.
func TestTimingPins(t *testing.T) {
	pins := map[string]map[core.Mitigation]timingPin{
		"500.perlbench_r": {
			core.Unsafe:      {135150, 97490},
			core.Fence:       {284440, 97490},
			core.STT:         {160399, 97490},
			core.GhostMinion: {161865, 97490},
			core.SpecASan:    {135815, 101589},
		},
		"505.mcf_r": {
			core.Unsafe:      {51761, 40646},
			core.Fence:       {129671, 40646},
			core.STT:         {58433, 40646},
			core.GhostMinion: {58018, 40646},
			core.SpecASan:    {54126, 48841},
		},
		"508.namd_r": {
			core.Unsafe:      {24986, 69568},
			core.Fence:       {44544, 69568},
			core.STT:         {24986, 69568},
			core.GhostMinion: {24986, 69568},
			core.SpecASan:    {25768, 72643},
		},
		"canneal": {
			core.Unsafe:      {53457, 85834},
			core.Fence:       {80310, 85834},
			core.STT:         {53578, 85834},
			core.GhostMinion: {60806, 85834},
			core.SpecASan:    {55283, 94038},
		},
	}
	opt := DefaultOptions()
	opt.Scale, opt.MaxCycles = 0.05, 50_000_000
	for name, byMit := range pins {
		spec := workloads.ByName(name)
		if spec == nil {
			t.Fatalf("unknown workload %q", name)
		}
		for mit, pin := range byMit {
			r, err := RunBenchmark(spec, mit, opt)
			if err != nil {
				t.Errorf("%s/%s: %v", name, mit, err)
				continue
			}
			if r.Cycles != pin.cycles || r.Committed != pin.committed {
				t.Errorf("%s/%s: got %d cycles / %d committed, pinned %d / %d",
					name, mit, r.Cycles, r.Committed, pin.cycles, pin.committed)
			}
		}
	}
}
