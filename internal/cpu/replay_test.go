package cpu

import (
	"testing"

	"specasan/internal/core"
	"specasan/internal/trace"
	"specasan/internal/workloads"
)

// buildLive assembles a registry workload the canonical way and boots it on
// a fresh machine — the exact path RunBenchmark takes without traces.
func buildLive(spec *workloads.Spec, mit core.Mitigation, scale float64) func(t *testing.T) *Machine {
	return func(t *testing.T) *Machine {
		t.Helper()
		prog, err := spec.Build(mit.MTEEnabled(), scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Cores = spec.Threads
		m, err := NewMachine(cfg, mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < spec.Threads; i++ {
			m.Core(i).SetReg(0, uint64(i))
		}
		return m
	}
}

// buildReplay records the same workload as a trace, round-trips it through
// the binary format, and boots the machine from the trace frontend instead
// of the assembled program.
func buildReplay(spec *workloads.Spec, mit core.Mitigation, scale float64) func(t *testing.T) *Machine {
	return func(t *testing.T) *Machine {
		t.Helper()
		tagged := mit.MTEEnabled()
		tr, err := spec.RecordTrace(tagged, scale, trace.RecordConfig{
			MTEOn:   tagged,
			TagSeed: TagSeedBase,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip through the wire format so the test covers what a
		// store-loaded trace actually replays, not just the in-memory one.
		enc, err := tr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := trace.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := dec.Frontend()
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Cores = spec.Threads
		m, err := NewMachineFrontend(cfg, mit, fe)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < spec.Threads; i++ {
			m.Core(i).SetReg(0, uint64(i))
		}
		return m
	}
}

// BenchmarkReplayVsDecode runs the same single-core cell to completion
// fetching from the live-assembled program ("decode") and from a recorded
// trace round-tripped through the wire format ("replay"), reporting ns per
// committed instruction for each. CI compares the two: replay rides the
// same Frontend seam, so it must not cost more than noise.
func BenchmarkReplayVsDecode(b *testing.B) {
	spec := workloads.ByName("505.mcf_r")
	if spec == nil {
		b.Fatal("workload missing")
	}
	const scale = 1
	prog, err := spec.Build(false, scale)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := spec.RecordTrace(false, scale, trace.RecordConfig{TagSeed: TagSeedBase})
	if err != nil {
		b.Fatal(err)
	}
	enc, err := tr.Encode()
	if err != nil {
		b.Fatal(err)
	}
	dec, err := trace.Decode(enc)
	if err != nil {
		b.Fatal(err)
	}
	fe, err := dec.Frontend()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, fe Frontend) {
		var insts uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultConfig()
			cfg.Cores = spec.Threads
			m, err := NewMachineFrontend(cfg, core.Unsafe, fe)
			if err != nil {
				b.Fatal(err)
			}
			res := m.Run(100_000_000)
			if res.Err != nil || res.TimedOut || res.Committed == 0 {
				b.Fatalf("run failed: %+v", res)
			}
			insts += res.Committed
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/sim-inst")
	}
	b.Run("decode", func(b *testing.B) { run(b, AssembledFrontend{Prog: prog}) })
	b.Run("replay", func(b *testing.B) { run(b, fe) })
}

// TestReplayMatchesLiveDecode is the replay contract: a machine fetching
// from a recorded trace must be bit-identical to one fetching from the
// live-assembled program — same cycles, counters, architectural state,
// leak record, and event traces — at 1, 2, and 4 cores (see runFingerprint).
func TestReplayMatchesLiveDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mcf2 := *workloads.ByName("505.mcf_r")
	mcf2.Name, mcf2.Threads = "505.mcf_r.x2", 2
	cases := []struct {
		spec  *workloads.Spec
		mit   core.Mitigation
		scale float64
	}{
		{workloads.ByName("505.mcf_r"), core.SpecASan, 0.05},
		{&mcf2, core.Unsafe, 0.05},
		{workloads.ByName("505.mcf_r.spmd4"), core.SpecASan, 0.02},
	}
	const budget = 20_000_000
	for _, tc := range cases {
		tc := tc
		if tc.spec == nil {
			t.Fatal("workload missing from registry")
		}
		t.Run(tc.spec.Name+"/"+tc.mit.String(), func(t *testing.T) {
			t.Parallel()
			live := runFingerprint(t, buildLive(tc.spec, tc.mit, tc.scale), budget)
			replay := runFingerprint(t, buildReplay(tc.spec, tc.mit, tc.scale), budget)
			if live != replay {
				t.Errorf("replay fingerprint diverges from live decode:\nlive:   %s\nreplay: %s", live, replay)
			}
		})
	}
}
