// Command perfbench is the repository's benchmark: one seeded workload per
// run, timed end to end with every operation's output checked against pinned
// references and the golden interpreter, or (with -trace 1) recomposed from
// the layers' public functions with a span around each call, giving the
// per-layer split.
//
//	go run . -workload detailed-sweep -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is the result object:
//
//	{"correct": true, "attempted": 90, "failed": 0, "metrics": {...}}
//
// The line before it is the host fingerprint. Progress goes to standard
// error. perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload. run executes rounds of the seed's fixed
// work until the time budget is spent and reports end-to-end metrics; traced
// runs the recomposed, span-recorded form and reports per-layer metrics.
type workload struct {
	name   string
	run    func(env *env) (*outcome, error)
	traced func(env *env) (*outcome, error)
	procs  int // GOMAXPROCS for the run, and so its worker count; 0 keeps nproc
}

// env is what every workload receives: its seed, time budget, and a scratch
// directory inside the checkout.
type env struct {
	seed    uint64
	seconds time.Duration
	work    string // scratch root; each workload makes its own subdirectories
	workers int    // GOMAXPROCS: sweep and fuzz workers, serve workers and clients
}

// outcome is a run's verdict and metrics before formatting.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

var workloadList = []workload{
	{name: "detailed-sweep", run: runDetailed, traced: tracedDetailed},
	{name: "sampled-sweep", run: runSampled, traced: tracedSampled},
	{name: "serve-mixed", run: runServe, traced: tracedServe},
	{name: "security", run: runSecurity, traced: tracedSecurity, procs: 1},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	work := flag.String("work", ".bench_build", "scratch directory for stores, temp files and span files")
	pin := flag.String("pin", "", "recompute pinned references into refs.json and exit: all, or a comma list of detailed, sampled, table1, fuzz (slow)")
	flag.Parse()

	if *pin != "" {
		if err := writePins("refs.json", *pin); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			w = &workloadList[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1\n")
		return 2
	}
	if err := loadRefs(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	workDir, err := filepath.Abs(*work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, work: workDir, workers: nproc()}

	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d workers=%d\n", w.name, *seed, *seconds, *trace, e.workers)
	run, defs := w.run, endToEnd
	if *trace == 1 {
		run, defs = w.traced, perLayer
	}
	out, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	// After the run, so the probe's buffer stays out of peak_rss_mb.
	host := fingerprint()
	if *trace == 1 {
		out.metrics["host.sha256_mb_per_s"] = host.SHA256MBPerS
	}
	line, err := formatResult(out, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))
	fmt.Println(line)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return names
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// formatResult renders the result line, insisting that the workload measured
// exactly the declared metrics.
func formatResult(o *outcome, defs []metricDef) (string, error) {
	metrics := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range o.metrics {
		if _, ok := metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		sort.Strings(extra)
		return "", fmt.Errorf("metric set mismatch: missing %v, undeclared %v", missing, extra)
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, metrics})
	return string(b), err
}
