package main

// The traced run's span recorder. Spans are recorded from the benchmark's own
// files around each call into a layer's public functions: name (layer.call),
// start, end, parent span and operation id. Counts and samples are recorded
// at the same boundaries. Everything stays in memory until the run ends,
// then the spans of the last traced round are written to a file.

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Op     int    `json:"op"`     // operation id: the cell, job or candidate
}

type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	counts  map[string]float64
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}, samples: map[string][]float64{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// record adds a closed top-level span measured by the caller.
func (t *tracer) record(name string, start time.Time, d time.Duration, op int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	from := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: from, End: from + d.Nanoseconds(), Parent: -1, Op: op})
}

// add accumulates a count recorded at a layer boundary.
func (t *tracer) add(key string, v float64) {
	t.mu.Lock()
	t.counts[key] += v
	t.mu.Unlock()
}

// set records a value computed once per round.
func (t *tracer) set(key string, v float64) {
	t.mu.Lock()
	t.counts[key] = v
	t.mu.Unlock()
}

// sample records one observation of a per-operation quantity.
func (t *tracer) sample(key string, v float64) {
	t.mu.Lock()
	t.samples[key] = append(t.samples[key], v)
	t.mu.Unlock()
}

// durations returns the durations of every closed span named name, in
// seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTimes returns each layer's self time in seconds: its spans' durations
// minus the parts covered by their child spans. A span's layer is its name
// up to the first dot.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return self
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// metricDef declares one printed metric.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of an untraced run, measured on every workload.
// Their times are process CPU time (see measure.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_cpu_s", "1/s"},
}

// tracedLayers are the layers that record spans; each reports its self time.
var tracedLayers = []string{"cpu", "cache", "golden", "workloads", "asm", "harness",
	"store", "scenario", "serve", "attacks", "fuzzer"}

// perLayer are the metrics of a traced run. A layer a workload does not reach
// reports 0: it did no work there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cpu.run_s", "s"}, {"cpu.ns_per_cycle_1core", "ns"}, {"cpu.ns_per_cycle_4core", "ns"},
		{"cpu.ns_per_inst", "ns"}, {"cpu.construct_ms", "ms"}, {"cpu.cycles", "count"},
		{"cpu.committed", "count"}, {"cpu.squashed_frac", "ratio"},
		{"cache.warm_ms", "ms"}, {"cache.l1d_miss_ratio", "ratio"}, {"cache.l2_miss_ratio", "ratio"},
		{"cache.tag_checks", "count"}, {"cache.coherence_inv", "count"},
		{"golden.walk_s", "s"}, {"golden.mips", "MIPS"}, {"golden.insts", "count"},
		{"workloads.generate_ms", "ms"}, {"asm.assemble_ms", "ms"}, {"asm.programs", "count"},
		{"harness.cell_s_p50", "s"}, {"harness.cell_s_max", "s"}, {"harness.sim_mips", "MIPS"},
		{"harness.ipc_err_max_pct", "%"}, {"harness.overhead_err_max_pp", "pp"},
		{"par.busy_frac", "ratio"}, {"par.tail_idle_s", "s"},
		{"store.get_ms_p50", "ms"}, {"store.put_ms_p50", "ms"}, {"store.hits", "count"},
		{"store.misses", "count"}, {"store.puts", "count"},
		{"scenario.parse_ms", "ms"}, {"scenario.hash_ms", "ms"},
		{"serve.cold_job_p50_ms", "ms"}, {"serve.cached_job_p50_ms", "ms"}, {"serve.cached_job_p95_ms", "ms"},
		{"serve.cell_latency_p50_ms", "ms"}, {"serve.overhead_ms_p50", "ms"},
		{"serve.cells_cached", "count"}, {"serve.jobs_rejected", "count"},
		{"attacks.evaluate_ms_p50", "ms"}, {"fuzzer.generate_ms", "ms"}, {"fuzzer.evaluate_ms_p50", "ms"},
		{"fuzzer.minimise_s", "s"}, {"fuzzer.finds", "count"},
		{"trace.overhead_s", "s"}, {"host.wall_s", "s"}, {"host.sha256_mb_per_s", "MB/s"},
	}
	for _, l := range tracedLayers {
		defs = append(defs, metricDef{l + ".self_s", "s"})
	}
	return defs
}()

// layerMetrics derives one traced round's per-layer metrics from its spans,
// counts and samples. trace.overhead_s and host.sha256_mb_per_s are added by
// the caller.
func (t *tracer) layerMetrics() map[string]float64 {
	c := t.counts
	m := map[string]float64{}
	sum := func(name string) float64 {
		total := 0.0
		for _, d := range t.durations(name) {
			total += d
		}
		return total
	}
	runNS := c["cpu.run_ns_1core"] + c["cpu.run_ns_4core"]
	m["cpu.run_s"] = sum("cpu.run")
	m["cpu.ns_per_cycle_1core"] = ratio(c["cpu.run_ns_1core"], c["cpu.cycles_1core"])
	m["cpu.ns_per_cycle_4core"] = ratio(c["cpu.run_ns_4core"], c["cpu.cycles_4core"])
	m["cpu.ns_per_inst"] = ratio(runNS, c["cpu.committed"])
	m["cpu.construct_ms"] = 1e3 * sum("cpu.construct")
	m["cpu.cycles"] = c["cpu.cycles_1core"] + c["cpu.cycles_4core"]
	m["cpu.committed"] = c["cpu.committed"]
	m["cpu.squashed_frac"] = ratio(c["cpu.squashed"], c["cpu.dispatched"])

	m["cache.warm_ms"] = 1e3 * sum("cache.warm")
	m["cache.l1d_miss_ratio"] = ratio(c["cache.l1d_misses"], c["cache.l1d_misses"]+c["cache.l1d_hits"])
	m["cache.l2_miss_ratio"] = ratio(c["cache.l2_misses"], c["cache.l2_misses"]+c["cache.l2_hits"])
	m["cache.tag_checks"] = c["cache.tag_checks"]
	m["cache.coherence_inv"] = c["cache.coherence_inv"]

	m["golden.walk_s"] = sum("golden.walk")
	m["golden.insts"] = c["golden.insts"]
	m["golden.mips"] = ratio(c["golden.insts"], 1e6*m["golden.walk_s"])

	m["workloads.generate_ms"] = 1e3 * sum("workloads.generate")
	m["asm.assemble_ms"] = 1e3 * sum("asm.assemble")
	m["asm.programs"] = float64(len(t.durations("asm.assemble")))

	cells := t.durations("harness.cell")
	m["harness.cell_s_p50"] = median(cells)
	m["harness.cell_s_max"] = maxOf(cells)
	for _, k := range []string{"harness.sim_mips", "harness.ipc_err_max_pct", "harness.overhead_err_max_pp",
		"par.busy_frac", "par.tail_idle_s", "store.hits", "store.misses", "store.puts",
		"serve.cell_latency_p50_ms", "serve.cells_cached", "serve.jobs_rejected", "fuzzer.finds"} {
		m[k] = c[k]
	}

	m["store.get_ms_p50"] = 1e3 * median(t.durations("store.get"))
	m["store.put_ms_p50"] = 1e3 * median(t.durations("store.put"))
	m["scenario.parse_ms"] = 1e3 * sum("scenario.parse")
	m["scenario.hash_ms"] = 1e3 * sum("scenario.hash")

	m["serve.cold_job_p50_ms"] = median(t.samples["serve.cold_job_ms"])
	m["serve.cached_job_p50_ms"] = median(t.samples["serve.cached_job_ms"])
	m["serve.cached_job_p95_ms"] = quantile(t.samples["serve.cached_job_ms"], 0.95)
	m["serve.overhead_ms_p50"] = median(t.samples["serve.overhead_ms"])

	m["attacks.evaluate_ms_p50"] = 1e3 * median(t.durations("attacks.evaluate"))
	m["fuzzer.generate_ms"] = 1e3 * sum("fuzzer.generate")
	m["fuzzer.evaluate_ms_p50"] = 1e3 * median(t.durations("fuzzer.evaluate"))
	m["fuzzer.minimise_s"] = sum("fuzzer.minimise")

	self := t.selfTimes()
	for _, l := range tracedLayers {
		m[l+".self_s"] = self[l]
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// medianMetrics folds per-round metric maps into their per-metric medians.
func medianMetrics(rounds []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k := range rounds[0] {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, r[k])
		}
		out[k] = median(xs)
	}
	return out
}
