package harness

import (
	"fmt"

	"specasan/internal/scenario"
)

// OptionsFromScenario converts a scenario into harness Options: its run
// section becomes the run knobs, its machine the run config, and its
// content and result hashes stamp every metrics record and key the cell
// cache. Output fields (Verbose, Log, Metrics, Attach) stay zero — they
// belong to the caller, not the scenario.
func OptionsFromScenario(s *scenario.Scenario) Options {
	cfg := s.Machine
	return Options{
		RunOptions:   s.Run,
		Config:       &cfg,
		ScenarioHash: s.Hash(),
		ResultHash:   s.ResultHash(),
	}
}

// RunScenarioSweep runs the sweep a scenario describes: its workloads against
// its mitigations under its machine, with opt supplying the output plumbing
// (Log/Metrics/Attach/Verbose). Run-shape fields of opt (RunOptions, Config,
// ScenarioHash) are overwritten from the scenario so the sweep cannot
// silently diverge from the hash it stamps.
func RunScenarioSweep(s *scenario.Scenario, opt Options) (*Sweep, error) {
	specs, err := s.WorkloadSpecs()
	if err != nil {
		return nil, err
	}
	mits, err := s.MitigationList()
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	so := OptionsFromScenario(s)
	so.Verbose, so.Log, so.Metrics, so.Attach = opt.Verbose, opt.Log, opt.Metrics, opt.Attach
	so.Store = opt.Store // cache keying (ResultHash) comes from the scenario
	return RunSweep(specs, mits, so)
}
