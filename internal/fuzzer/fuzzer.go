package fuzzer

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"specasan/internal/core"
	"specasan/internal/par"
	"specasan/internal/store"
)

// Options configures one fuzzing run.
type Options struct {
	// Seed drives generation: candidate i is a pure function of (Seed, i).
	Seed uint64
	// N is the candidate count. With N > 0 the run is exactly determined by
	// (Seed, N): same PoC corpus bytes at any Workers. With N == 0 the run
	// proceeds in whole batches until Budget expires (one batch if Budget
	// is also zero); the corpus is then a deterministic prefix.
	N int
	// Budget bounds wall-clock time for N == 0 runs.
	Budget time.Duration
	// Workers sizes the evaluation pool (0 = GOMAXPROCS).
	Workers int
	// OutDir is the results root: PoCs land in OutDir/pocs, architectural
	// divergences in OutDir/differential. Empty disables emission (tests).
	OutDir string
	// Store, when set, caches candidate evaluations content-addressed, so
	// interrupted or repeated runs are cache hits.
	Store *store.Store
	// Mitigations overrides the evaluation columns (default: every
	// registered policy).
	Mitigations []core.Mitigation
	// SkipMinimise emits finds unminimised (triage speed over quality).
	SkipMinimise bool
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

// batchSize is the unit of budget-bounded progress: batches always complete,
// so a budget-stopped corpus is a deterministic prefix of the unbounded run.
const batchSize = 64

// Find is one deduplicated flagged candidate awaiting minimisation.
type Find struct {
	Cand    *Candidate
	Kind    string
	Flagged []FlaggedMit
}

// Report summarises a run.
type Report struct {
	Seed       uint64 `json:"seed"`
	Candidates int    `json:"candidates"`
	Valid      int    `json:"valid"`
	CacheHits  int    `json:"cache_hits"`

	PoCs            []string `json:"pocs,omitempty"`  // written JSON paths
	Counterexamples int      `json:"counterexamples"` // PoCs of kind counterexample
	KnownGaps       int      `json:"known_gaps"`      // PoCs of kind known-gap
	Unminimisable   []string `json:"unminimisable,omitempty"`
	Differential    []string `json:"differential,omitempty"` // written divergence paths
}

// storeSpace derives the cache namespace from everything that shapes an
// evaluation: grammar and claims-model versions, budgets, and the exact
// mitigation descriptor set. Any change re-evaluates from scratch.
func storeSpace(mits []core.Mitigation) string {
	h := sha256.New()
	fmt.Fprintf(h, "gen=%d claims=%d eval=%d golden=%d\n", GeneratorVersion, ClaimsVersion, evalMaxCycles, goldenBudget)
	for _, m := range mits {
		d, _ := json.Marshal(m.Descriptor())
		h.Write(d)
		h.Write([]byte{'\n'})
	}
	return "fuzz-" + hex.EncodeToString(h.Sum(nil))[:12]
}

func evaluateCached(c *Candidate, mits []core.Mitigation, st *store.Store, space string) (*Evaluation, bool) {
	if st == nil {
		return EvaluateCandidate(c, mits), false
	}
	key := store.Key{Space: space, Name: c.Hash()}
	var cached Evaluation
	if ok, err := st.GetJSON(key, &cached); err == nil && ok {
		return &cached, true
	}
	ev := EvaluateCandidate(c, mits)
	_ = st.PutJSON(key, ev) // best-effort: read-only stores degrade to misses
	return ev, false
}

// Run executes the fuzzing loop: generate → evaluate (parallel, cached) →
// dedup flagged finds in index order → minimise → cross-checked PoC
// emission. The emitted corpus is byte-identical for a given (Seed, N) at
// any worker count.
func Run(opts Options) (*Report, error) {
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	mits := opts.Mitigations
	if len(mits) == 0 {
		mits = core.RegisteredMitigations()
	}
	mitNames := make([]string, len(mits))
	for i, m := range mits {
		mitNames[i] = m.String()
	}
	space := storeSpace(mits)
	report := &Report{Seed: opts.Seed}

	type diverging struct {
		Cand *Candidate
		Mits []string
	}
	var (
		finds    []*Find
		diverged []diverging
		seen     = map[string]bool{}
	)

	// processBatch evaluates candidates [start, start+n) in parallel and
	// folds results in strict index order — the determinism point.
	processBatch := func(start, n int) {
		cands := make([]*Candidate, n)
		evals := make([]*Evaluation, n)
		hits := make([]bool, n)
		par.ForEachOrdered(n, opts.Workers, func(i int) {
			cands[i] = Generate(opts.Seed, start+i)
			evals[i], hits[i] = evaluateCached(cands[i], mits, opts.Store, space)
		}, func(i int) {
			c, ev := cands[i], evals[i]
			report.Candidates++
			if hits[i] {
				report.CacheHits++
			}
			if !ev.Valid {
				return
			}
			report.Valid++
			if len(ev.Diverged) > 0 {
				diverged = append(diverged, diverging{Cand: c, Mits: ev.Diverged})
			}
			if !ev.Flagged() {
				return
			}
			kind := KindKnownGap
			flaggedMits := ev.KnownGapLeaks
			if len(ev.Counterexamples) > 0 {
				kind = KindCounterexample
				flaggedMits = ev.Counterexamples
			}
			sig := kind + "|" + c.FeatureSig() + "|" + strings.Join(flaggedMits, ",")
			if seen[sig] {
				return
			}
			seen[sig] = true
			var flagged []FlaggedMit
			for _, name := range flaggedMits {
				m, err := core.ParseMitigation(name)
				if err != nil {
					continue // registry changed underneath a cached row
				}
				tier, reason := Claim(m, c)
				flagged = append(flagged, FlaggedMit{Mitigation: name, Claim: tier.String(), Reason: reason})
			}
			finds = append(finds, &Find{Cand: c, Kind: kind, Flagged: flagged})
		})
	}

	t0 := time.Now()
	if opts.N > 0 {
		processBatch(0, opts.N)
	} else {
		for start := 0; ; start += batchSize {
			processBatch(start, batchSize)
			logf("batch %d done: %d candidates, %d finds, %s elapsed",
				start/batchSize, report.Candidates, len(finds), time.Since(t0).Round(time.Millisecond))
			if opts.Budget <= 0 || time.Since(t0) >= opts.Budget {
				break
			}
		}
	}
	logf("scan: %d candidates (%d valid, %d cache hits), %d distinct finds, %d divergences",
		report.Candidates, report.Valid, report.CacheHits, len(finds), len(diverged))

	// Minimise and emit, sequentially in find order (deterministic).
	for _, f := range finds {
		target, err := core.ParseMitigation(f.Flagged[0].Mitigation)
		if err != nil {
			report.Unminimisable = append(report.Unminimisable,
				fmt.Sprintf("%s: %v", f.Cand.Name(), err))
			continue
		}
		min := f.Cand
		if !opts.SkipMinimise {
			min, err = Minimise(f.Cand, target)
			if err != nil {
				report.Unminimisable = append(report.Unminimisable,
					fmt.Sprintf("%s: %v", f.Cand.Name(), err))
				continue
			}
		}
		final := EvaluateCandidate(min, mits)
		if !final.Valid || !final.Flagged() {
			report.Unminimisable = append(report.Unminimisable,
				fmt.Sprintf("%s: minimised form no longer flags (valid=%v)", f.Cand.Name(), final.Valid))
			continue
		}
		kind := KindKnownGap
		if len(final.Counterexamples) > 0 {
			kind = KindCounterexample
		}
		var flagged []FlaggedMit
		for _, name := range append(append([]string{}, final.Counterexamples...), final.KnownGapLeaks...) {
			m, _ := core.ParseMitigation(name)
			tier, reason := Claim(m, min)
			flagged = append(flagged, FlaggedMit{Mitigation: name, Claim: tier.String(), Reason: reason})
		}
		poc := BuildPoC(min, kind, flagged, final.Rows, mitNames)
		if kind == KindCounterexample {
			report.Counterexamples++
		} else {
			report.KnownGaps++
		}
		if opts.OutDir != "" {
			path, err := poc.Write(filepath.Join(opts.OutDir, "pocs"))
			if err != nil {
				return report, fmt.Errorf("write poc %s: %w", poc.Name, err)
			}
			report.PoCs = append(report.PoCs, path)
			logf("poc %s (%s) -> %s", poc.Name, kind, path)
		} else {
			report.PoCs = append(report.PoCs, poc.Name)
		}
	}

	// Divergences route to the differential corpus: they are simulator
	// bugs for FuzzDifferentialGolden to chew on, not attacks.
	if opts.OutDir != "" && len(diverged) > 0 {
		dir := filepath.Join(opts.OutDir, "differential")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return report, err
		}
		for _, d := range diverged {
			base := filepath.Join(dir, "diverge-"+d.Cand.Hash())
			doc, err := json.MarshalIndent(struct {
				Candidate *Candidate `json:"candidate"`
				Diverged  []string   `json:"diverged"`
			}{d.Cand, d.Mits}, "", "  ")
			if err != nil {
				return report, err
			}
			if err := os.WriteFile(base+".json", append(doc, '\n'), 0o644); err != nil {
				return report, err
			}
			if err := os.WriteFile(base+".s", []byte(d.Cand.Source), 0o644); err != nil {
				return report, err
			}
			report.Differential = append(report.Differential, base+".json")
		}
	}
	logf("emitted %d PoCs (%d counterexamples, %d known-gap), %d unminimisable, %d differential",
		len(report.PoCs), report.Counterexamples, report.KnownGaps,
		len(report.Unminimisable), len(report.Differential))
	return report, nil
}
