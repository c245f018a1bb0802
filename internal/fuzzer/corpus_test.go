package fuzzer

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/scenario"
)

// TestPoCCorpusParallelCoresByteIdentical replays the checked-in PoC
// corpus solo and then as identical replays on parallel goroutines, the
// way the fuzzer's evaluation pool runs candidates, and pins every
// outcome — leak bit, secret-read count, per-channel event counts, and the
// exact cycle count — to the solo replay. Any drift means replays share
// mutable state; under -race that state is a reported data race.
func TestPoCCorpusParallelCoresByteIdentical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "pocs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in PoCs under testdata/pocs")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			p, err := ReadPoC(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range p.Rows {
				mit, err := core.ParseMitigation(row.Mitigation)
				if err != nil {
					t.Fatalf("row names unknown mitigation: %v", err)
				}
				solo, err := attacks.RunVariantWith(p.Variant(), mit, nil)
				if err != nil {
					t.Fatalf("solo replay under %v: %v", mit, err)
				}
				outs := make([]*attacks.Outcome, 2)
				errs := make([]error, len(outs))
				var wg sync.WaitGroup
				for i := range outs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						outs[i], errs[i] = attacks.RunVariantWith(p.Variant(), mit, nil)
					}(i)
				}
				wg.Wait()
				for i, out := range outs {
					if errs[i] != nil {
						t.Fatalf("concurrent replay %d under %v: %v", i, mit, errs[i])
					}
					if !reflect.DeepEqual(solo, out) {
						t.Errorf("%v: concurrent replay %d diverged:\nsolo       %+v\nconcurrent %+v",
							mit, i, solo, out)
					}
				}
			}
		})
	}
}

// TestPoCCorpusVerdicts replays every checked-in PoC (testdata/pocs, the
// seed-1 corpus) and pins its per-mitigation verdict rows: each flagged
// mitigation must still leak, each blocked row must still block, and the
// claims model must still judge the shape the way the document records. A
// failure here means a defence implementation, the oracle, or the claims
// model changed behaviour — exactly the regression the corpus exists to
// catch. Regenerate with: specasan-fuzz -seed 1 -n 64 -out <tmp> and copy
// <tmp>/pocs over testdata/pocs.
func TestPoCCorpusVerdicts(t *testing.T) {
	_ = scenario.DelayOnMiss // ensure the registry includes the ninth policy
	paths, err := filepath.Glob(filepath.Join("testdata", "pocs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in PoCs under testdata/pocs")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			p, err := ReadPoC(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Flagged) == 0 {
				t.Fatal("PoC flags no mitigation")
			}
			flagged := map[string]bool{}
			for _, f := range p.Flagged {
				flagged[f.Mitigation] = true
			}
			cand := &Candidate{Trigger: p.Trigger, Relation: p.Relation, Channel: p.Channel}
			for _, row := range p.Rows {
				mit, err := core.ParseMitigation(row.Mitigation)
				if err != nil {
					t.Fatalf("row names unknown mitigation: %v", err)
				}
				// The claims model still judges this shape as recorded.
				if tier, _ := Claim(mit, cand); tier.String() != row.Claim {
					t.Errorf("%v claim drifted: %s, corpus says %s", mit, tier, row.Claim)
				}
				out, err := attacks.RunVariantWith(p.Variant(), mit, nil)
				if err != nil {
					t.Fatalf("replay under %v: %v", mit, err)
				}
				if out.Leaked != row.Leaked {
					t.Errorf("%v: leaked=%v, corpus pinned %v", mit, out.Leaked, row.Leaked)
				}
				if out.Faulted || out.TimedOut {
					t.Errorf("%v: replay faulted=%v timedout=%v", mit, out.Faulted, out.TimedOut)
				}
				if flagged[row.Mitigation] && !out.Leaked {
					t.Errorf("%v is flagged but no longer leaks", mit)
				}
			}
		})
	}
}
