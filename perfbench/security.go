package main

// security: one Table 1 matrix evaluation plus one fuzzer.Run of fuzzBatch
// candidates (four of the fuzzer's batches) whose seed the workload seed
// picks from the pinned fuzz seeds, its PoC corpus written to a scratch
// directory. Hundreds of tiny, speculation-heavy programs: assembling
// programs and building machines matter more than steady-state stepping.
//
// The workload runs on one processor (GOMAXPROCS 1, so one evaluation
// worker), not nproc. The fuzzer allocates so fast that the collector runs
// every few milliseconds. With more processors than workers the collector's
// idle-time workers and the scheduler's spinning fill the spare vCPU, and
// how much they burn follows the host's load, not the program: on a 2-vCPU
// VM one batch with one worker took 7.1 to 7.9 CPU seconds (7.4 to 9.8 s
// wall) at GOMAXPROCS 2, and 3.7 to 5.0 at GOMAXPROCS 1, back to back. With
// two workers its rounds spread about 25% even on a quiet host.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"specasan/internal/asm"
	"specasan/internal/attacks"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/fuzzer"
	"specasan/internal/par"
)

// prepareSecurity is the security set-up: pick the fuzz seed, build every
// Table 1 variant, and generate and assemble the batch's candidates, which
// proves every program assembles before timing starts.
func prepareSecurity(seed uint64) (uint64, error) {
	for _, a := range attacks.All() {
		for _, v := range a.Variants {
			if _, err := v.Build(); err != nil {
				return 0, fmt.Errorf("%s/%s: %w", a.Name, v.Name, err)
			}
		}
	}
	fuzzSeed := drawFuzzSeed(seed)
	for i := 0; i < fuzzBatch; i++ {
		if _, err := asm.Assemble(fuzzer.Generate(fuzzSeed, i).Source); err != nil {
			return 0, fmt.Errorf("fuzz candidate %d: %w", i, err)
		}
	}
	return fuzzSeed, nil
}

// corpusDigest hashes every file under dir (relative path and bytes, in path
// order) and counts the PoC documents.
func corpusDigest(dir string) (fuzzRef, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		return fuzzRef{}, err
	}
	sort.Strings(paths)
	h := sha256.New()
	var ref fuzzRef
	for _, p := range paths {
		rel, _ := filepath.Rel(dir, p)
		b, err := os.ReadFile(p)
		if err != nil {
			return fuzzRef{}, err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		if strings.HasPrefix(filepath.ToSlash(rel), "pocs/") && strings.HasSuffix(rel, ".json") {
			ref.PoCs++
		}
	}
	ref.SHA256 = hex.EncodeToString(h.Sum(nil)[:8])
	return ref, nil
}

// table1 evaluates the Table 1 matrix, calling each under a span when tr is
// set.
func table1(tr *tracer) (map[string][]string, error) {
	out := map[string][]string{}
	op := 0
	for _, a := range attacks.All() {
		for _, m := range attacks.TableMitigations() {
			s := -1
			if tr != nil {
				s = tr.begin("attacks.evaluate", -1, op)
			}
			v, _, err := a.Evaluate(m)
			if tr != nil {
				tr.end(s)
			}
			if err != nil {
				return nil, fmt.Errorf("%s under %v: %w", a.Name, m, err)
			}
			out[a.Name] = append(out[a.Name], v.Word())
			op++
		}
	}
	return out, nil
}

// checkSecurity compares a round's Table 1 matrix and corpus with the pins.
// Each matrix cell and each fuzz candidate is one operation; a corpus that
// differs fails every candidate of the batch.
func checkSecurity(out *outcome, fuzzSeed uint64, matrix map[string][]string, corpus fuzzRef) {
	for _, a := range attacks.All() {
		want := refs.Table1[a.Name]
		for j, m := range attacks.TableMitigations() {
			out.attempted++
			if j >= len(want) || j >= len(matrix[a.Name]) || matrix[a.Name][j] != want[j] {
				out.fail("Table 1 %s under %v: got %v, pinned %v", a.Name, m, matrix[a.Name], want)
			}
		}
	}
	out.attempted += fuzzBatch
	want, ok := refs.Fuzz[strconv.FormatUint(fuzzSeed, 10)]
	if !ok || corpus != want {
		out.failed += fuzzBatch
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: fuzz seed %d corpus %+v, pinned %+v\n", fuzzSeed, corpus, want)
	}
}

// securityRound runs Table 1 and the fuzz batch through their public entry
// points.
func securityRound(e *env, fuzzSeed uint64) (cost, map[string][]string, fuzzRef, error) {
	dir, err := os.MkdirTemp(filepath.Join(e.work, "tmp"), "fuzz-")
	if err != nil {
		return cost{}, nil, fuzzRef{}, err
	}
	defer os.RemoveAll(dir)
	w := startWatch()
	matrix, err := table1(nil)
	if err != nil {
		return cost{}, nil, fuzzRef{}, err
	}
	if _, err := fuzzer.Run(fuzzer.Options{Seed: fuzzSeed, N: fuzzBatch, Workers: e.workers, OutDir: dir}); err != nil {
		return cost{}, nil, fuzzRef{}, err
	}
	c := w.stop()
	corpus, err := corpusDigest(dir)
	return c, matrix, corpus, err
}

func runSecurity(e *env) (*outcome, error) {
	if err := os.MkdirAll(filepath.Join(e.work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	var fuzzSeed uint64
	setup, err := timeSetup(func() (teardown func(), err error) {
		fuzzSeed, err = prepareSecurity(e.seed)
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	costs, rss, err := measureRounds(e.seconds, func() (cost, error) {
		c, matrix, corpus, err := securityRound(e, fuzzSeed)
		if err == nil {
			checkSecurity(out, fuzzSeed, matrix, corpus)
		}
		return c, err
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: fuzz seed %d\n", fuzzSeed)
	out.metrics = endToEndMetrics(setup, costs, rss, fuzzBatch)
	return out, nil
}

func tracedSecurity(e *env) (*outcome, error) {
	if err := os.MkdirAll(filepath.Join(e.work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	fuzzSeed, err := prepareSecurity(e.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	out.metrics, err = tracedRounds(e, "security", func() (time.Duration, time.Duration, *tracer, error) {
		plain, matrix, corpus, err := securityRound(e, fuzzSeed)
		if err != nil {
			return 0, 0, nil, err
		}
		checkSecurity(out, fuzzSeed, matrix, corpus)

		tr := newTracer()
		t := time.Now()
		if matrix, err = table1(tr); err != nil {
			return 0, 0, nil, err
		}
		dir, err := os.MkdirTemp(filepath.Join(e.work, "tmp"), "fuzz-")
		if err != nil {
			return 0, 0, nil, err
		}
		defer os.RemoveAll(dir)
		cands, err := tracedFuzz(tr, fuzzSeed, e.workers, dir)
		twall := time.Since(t)
		if err == nil {
			corpus, err = corpusDigest(dir)
		}
		if err == nil {
			err = tracedBuilds(tr, cands)
		}
		if err != nil {
			return 0, 0, nil, err
		}
		checkSecurity(out, fuzzSeed, matrix, corpus)
		return plain.wall, twall, tr, nil
	})
	return out, err
}

// tracedFuzz is fuzzer.Run for one batch, recomposed from the fuzzer's public
// functions under spans: generate and evaluate on the pool, deduplicate the
// flagged finds in index order, minimise each, re-evaluate the minimised form
// and write its PoC. It returns the batch's candidates.
func tracedFuzz(tr *tracer, seed uint64, workers int, dir string) ([]*fuzzer.Candidate, error) {
	mits := core.RegisteredMitigations()
	mitNames := make([]string, len(mits))
	for i, m := range mits {
		mitNames[i] = m.String()
	}
	cands := make([]*fuzzer.Candidate, fuzzBatch)
	evals := make([]*fuzzer.Evaluation, fuzzBatch)
	par.ForEachOrdered(fuzzBatch, workers, func(i int) {
		s := tr.begin("fuzzer.generate", -1, i)
		cands[i] = fuzzer.Generate(seed, i)
		tr.end(s)
		s = tr.begin("fuzzer.evaluate", -1, i)
		evals[i] = fuzzer.EvaluateCandidate(cands[i], mits)
		tr.end(s)
	}, nil)

	seen := map[string]bool{}
	var finds []*fuzzer.Find
	for i, ev := range evals {
		if len(ev.Diverged) > 0 {
			return nil, fmt.Errorf("candidate %d diverged from golden under %v", i, ev.Diverged)
		}
		if !ev.Valid || !ev.Flagged() {
			continue
		}
		kind, flaggedMits := fuzzer.KindKnownGap, ev.KnownGapLeaks
		if len(ev.Counterexamples) > 0 {
			kind, flaggedMits = fuzzer.KindCounterexample, ev.Counterexamples
		}
		sig := kind + "|" + cands[i].FeatureSig() + "|" + strings.Join(flaggedMits, ",")
		if seen[sig] {
			continue
		}
		seen[sig] = true
		var flagged []fuzzer.FlaggedMit
		for _, name := range flaggedMits {
			m, err := core.ParseMitigation(name)
			if err != nil {
				continue
			}
			tier, reason := fuzzer.Claim(m, cands[i])
			flagged = append(flagged, fuzzer.FlaggedMit{Mitigation: name, Claim: tier.String(), Reason: reason})
		}
		finds = append(finds, &fuzzer.Find{Cand: cands[i], Kind: kind, Flagged: flagged})
	}
	tr.set("fuzzer.finds", float64(len(finds)))

	for op, f := range finds {
		target, err := core.ParseMitigation(f.Flagged[0].Mitigation)
		if err != nil {
			return nil, err
		}
		s := tr.begin("fuzzer.minimise", -1, op)
		min, err := fuzzer.Minimise(f.Cand, target)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("minimise %s: %w", f.Cand.Name(), err)
		}
		s = tr.begin("fuzzer.evaluate", -1, op)
		final := fuzzer.EvaluateCandidate(min, mits)
		tr.end(s)
		if !final.Valid || !final.Flagged() {
			return nil, fmt.Errorf("minimised %s no longer flags", f.Cand.Name())
		}
		kind := fuzzer.KindKnownGap
		if len(final.Counterexamples) > 0 {
			kind = fuzzer.KindCounterexample
		}
		var flagged []fuzzer.FlaggedMit
		for _, name := range append(append([]string{}, final.Counterexamples...), final.KnownGapLeaks...) {
			m, _ := core.ParseMitigation(name)
			tier, reason := fuzzer.Claim(m, min)
			flagged = append(flagged, fuzzer.FlaggedMit{Mitigation: name, Claim: tier.String(), Reason: reason})
		}
		if _, err := fuzzer.BuildPoC(min, kind, flagged, final.Rows, mitNames).Write(filepath.Join(dir, "pocs")); err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// tracedBuilds calls the assembler and machine constructor, which the fuzzer
// reaches only inside its evaluation, directly on the batch's candidates:
// each candidate assembled once and built under every registered mitigation.
// It runs after the traced round's timed section, so trace.overhead_s does
// not count it.
func tracedBuilds(tr *tracer, cands []*fuzzer.Candidate) error {
	mits := core.RegisteredMitigations()
	for i, c := range cands {
		s := tr.begin("asm.assemble", -1, i)
		_, err := asm.Assemble(c.Source)
		tr.end(s)
		if err != nil {
			continue // an invalid candidate; EvaluateCandidate reported it
		}
		sc, err := c.Variant().Build()
		if err != nil {
			continue
		}
		for _, m := range mits {
			s := tr.begin("cpu.construct", -1, i)
			_, err := cpu.NewMachine(core.DefaultConfig(), m, sc.Prog)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("candidate %d under %v: %w", i, m, err)
			}
		}
	}
	return nil
}
