package main

// Recomputing the pinned references (`go run . -pin all`, or a comma list of
// sections: detailed, sampled, table1, fuzz). Sections not named keep their
// pinned values. Every pinned sweep cell is first checked against the golden
// interpreter, so a pin can only record an architecturally correct result.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"specasan/internal/fuzzer"
	"specasan/internal/workloads"
)

func writePins(path, sections string) error {
	// Start from the file on disk, not the pins compiled in, so sections
	// pinned by an earlier -pin run of the same binary are kept.
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &refs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := map[string]bool{}
	for _, s := range strings.Split(sections, ",") {
		want[strings.TrimSpace(s)] = true
	}
	all := want["all"]
	workers := nproc()
	if all || want["detailed"] {
		specs := poolSpecs(append(append([]poolEntry{}, detailedSPEC...), detailedPARSEC...))
		got, err := pinSweep(specs, false, workers)
		if err != nil {
			return err
		}
		refs.Detailed = got
	}
	if all || want["sampled"] {
		specs := poolSpecs(sampledPool)
		sampled, err := pinSweep(specs, true, workers)
		if err != nil {
			return err
		}
		full, err := pinSweep(specs, false, workers)
		if err != nil {
			return err
		}
		refs.Sampled = map[string]sampledRef{}
		for k, s := range sampled {
			refs.Sampled[k] = sampledRef{Sampled: s, Full: full[k]}
		}
	}
	if all || want["table1"] {
		m, err := table1(nil)
		if err != nil {
			return err
		}
		refs.Table1 = m
	}
	if all || want["fuzz"] {
		refs.Fuzz = map[string]fuzzRef{}
		for _, seed := range fuzzSeeds {
			dir, err := os.MkdirTemp("", "perfbench-pin-")
			if err != nil {
				return err
			}
			_, err = fuzzer.Run(fuzzer.Options{Seed: seed, N: fuzzBatch, Workers: workers, OutDir: dir})
			var ref fuzzRef
			if err == nil {
				ref, err = corpusDigest(dir)
			}
			os.RemoveAll(dir)
			if err != nil {
				return fmt.Errorf("fuzz seed %d: %w", seed, err)
			}
			refs.Fuzz[strconv.FormatUint(seed, 10)] = ref
			fmt.Fprintf(os.Stderr, "pinned fuzz seed %d: %+v\n", seed, ref)
		}
	}
	b, err = json.MarshalIndent(&refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Clean(path), append(b, '\n'), 0o644)
}

func poolSpecs(pool []poolEntry) []*workloads.Spec {
	var specs []*workloads.Spec
	for _, p := range pool {
		specs = append(specs, p.spec())
	}
	return specs
}

// pinSweep runs a whole pool once and golden-checks every cell.
func pinSweep(specs []*workloads.Spec, sampled bool, workers int) (map[string]cellRef, error) {
	_, got, errs := sweepRound(specs, sampled, workers)
	for k, err := range errs {
		return nil, fmt.Errorf("%s: %w", k, err)
	}
	oracle, err := goldenOracle(specs)
	if err != nil {
		return nil, err
	}
	for _, c := range sweepCells(specs) {
		if p := cellProblem(c, got[c.key()], oracle, sampled, false); p != "" {
			return nil, fmt.Errorf("%s: %s", c.key(), p)
		}
	}
	fmt.Fprintf(os.Stderr, "pinned %d cells (sampled=%v)\n", len(got), sampled)
	return got, nil
}
