package scenario

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// storeSafe mirrors internal/store's key validation (the two packages must
// agree or every derived key would be rejected at the store boundary).
var storeSafe = regexp.MustCompile(`^[A-Za-z0-9_][A-Za-z0-9._-]*$`)

func TestCellKeySafeAndCollisionFree(t *testing.T) {
	keys := map[string]string{}
	for _, c := range [][2]string{
		{"505.mcf_r", "SpecASan"},
		{"505.mcf_r", "SpecASan+CFI"},
		{"505.mcf/r", "SpecASan"},  // sanitizes onto the same slug as 505.mcf_r...
		{"505.mcf_r", "Spec ASan"}, // ...and this onto SpecASan's
		{"wl", "m"},
		{"wl_", "m"}, // slug aliases wl/_m vs wl_/m without the guard hash
		{"w", "l_m"},
		{"", ""},
		{"../../etc", "passwd"},
		{strings.Repeat("very-long-benchmark-name", 20), "mit"},
	} {
		k := CellKey(c[0], c[1])
		if !storeSafe.MatchString(k) {
			t.Errorf("CellKey(%q,%q) = %q not store-safe", c[0], c[1], k)
		}
		if len(k) > 120 {
			t.Errorf("CellKey(%q,%q) too long: %d", c[0], c[1], len(k))
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("collision: %q produced by %v and %v", k, prev, c)
		}
		keys[k] = c[0] + "/" + c[1]
	}
	if CellKey("505.mcf_r", "SpecASan") != CellKey("505.mcf_r", "SpecASan") {
		t.Errorf("CellKey not deterministic")
	}
}

func TestChaosCellKeyCoordinatesMatter(t *testing.T) {
	base := ChaosCellKey("505.mcf_r", "SpecASan", []string{"evict"}, 1)
	for _, other := range []string{
		ChaosCellKey("505.mcf_r", "SpecASan", []string{"evict"}, 2),
		ChaosCellKey("505.mcf_r", "SpecASan", []string{"evict", "latency"}, 1),
		ChaosCellKey("505.mcf_r", "Unsafe", []string{"evict"}, 1),
	} {
		if other == base {
			t.Errorf("distinct chaos cells share key %q", base)
		}
	}
	if !storeSafe.MatchString(base) {
		t.Errorf("chaos cell key %q not store-safe", base)
	}
}

func TestResultHashNormalizesSchedulingKnobs(t *testing.T) {
	a := Default()
	b := Default()
	b.Name = "renamed"
	b.Run.Workers = 7
	b.Run.RetryBudgetFactor = 9
	b.Run.MaxRetries = 3
	if a.ResultHash() != b.ResultHash() {
		t.Errorf("workers/retry knobs changed ResultHash: %s vs %s",
			a.ResultHash(), b.ResultHash())
	}
	if a.Hash() == b.Hash() {
		t.Errorf("identity Hash should still see the knobs")
	}
}

// The retired run knobs (parallel_cores, trace_record, trace_replay) stay
// documented, ignored fields: a document that still sets one must decode
// strictly and share its ResultHash with the same document without it.
func TestParallelCoresIgnoredField(t *testing.T) {
	const base = `{"name": "compat", "run": {"scale": 0.05%s}}`
	without, err := Parse([]byte(fmt.Sprintf(base, "")), "without", "without")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field, value string
		decoded      func(*Scenario) bool
	}{
		{"parallel_cores", "4", func(s *Scenario) bool { return s.Run.ParallelCores == 4 }},
		{"trace_record", "true", func(s *Scenario) bool { return s.Run.TraceRecord }},
		{"trace_replay", "true", func(s *Scenario) bool { return s.Run.TraceReplay }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			doc := fmt.Sprintf(base, fmt.Sprintf(`, %q: %s`, tc.field, tc.value))
			with, err := Parse([]byte(doc), "with", "with")
			if err != nil {
				t.Fatalf("document with %s does not parse: %v", tc.field, err)
			}
			if !tc.decoded(with) {
				t.Fatalf("%s: %s did not decode", tc.field, tc.value)
			}
			if with.ResultHash() != without.ResultHash() {
				t.Errorf("%s changed ResultHash: %s vs %s", tc.field, with.ResultHash(), without.ResultHash())
			}
		})
	}
}

func TestResultHashIgnoresCellCoordinates(t *testing.T) {
	a := Default()
	b := Default()
	b.Mitigations = append(b.Mitigations, "DelayOnMiss") // extra sweep column
	b.Workloads = b.Workloads[:3]                        // fewer rows
	if a.ResultHash() != b.ResultHash() {
		t.Errorf("cell coordinates changed ResultHash")
	}
}

func TestResultHashSeesSemanticChanges(t *testing.T) {
	a := Default()
	for _, mut := range []func(*Scenario){
		func(s *Scenario) { s.Machine.ROBEntries *= 2 },
		func(s *Scenario) { s.Run.Scale = 0.5 },
		func(s *Scenario) { s.Run.MaxCycles /= 2 },
		func(s *Scenario) { s.Run.SkipIdle = false },
	} {
		b := Default()
		mut(b)
		if a.ResultHash() == b.ResultHash() {
			t.Errorf("semantic change invisible to ResultHash")
		}
	}
}

func TestResultHashChaosContext(t *testing.T) {
	a, _ := Preset(PresetChaosSmoke)
	b, _ := Preset(PresetChaosSmoke)
	b.Chaos.Seeds = 99
	b.Chaos.Seed0 = 7
	b.Chaos.Kinds = []string{"evict"}
	b.Chaos.VerdictSeeds = 0
	if a.ResultHash() != b.ResultHash() {
		t.Errorf("chaos cell-enumeration knobs changed ResultHash")
	}
	c, _ := Preset(PresetChaosSmoke)
	c.Chaos.Rate = 0.5
	if a.ResultHash() == c.ResultHash() {
		t.Errorf("chaos rate change invisible to ResultHash")
	}
}

func TestRetryKnobValidation(t *testing.T) {
	s := Default()
	s.Run.MaxRetries = -1
	if err := s.Validate(); err == nil {
		t.Errorf("negative max_retries accepted")
	}
	s = Default()
	s.Run.MaxRetries = 9
	if err := s.Validate(); err == nil {
		t.Errorf("max_retries 9 accepted")
	}
	s = Default()
	s.Run.MaxRetries = 2
	s.Run.RetryBudgetFactor = 0
	if err := s.Validate(); err == nil {
		t.Errorf("zero retry_budget_factor with retries accepted")
	}
	s = Default()
	s.Run.MaxRetries = 0
	s.Run.RetryBudgetFactor = 0 // retries off: factor unused, allowed
	if err := s.Validate(); err != nil {
		t.Errorf("retries-off scenario rejected: %v", err)
	}
}

func TestDefaultRetryKnobsMatchLegacyPolicy(t *testing.T) {
	r := DefaultRunOptions()
	if r.RetryBudgetFactor != 4 || r.MaxRetries != 1 {
		t.Fatalf("default retry policy %d/%d, want the PR 1 hardcoded 4x/1",
			r.RetryBudgetFactor, r.MaxRetries)
	}
}
