package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Set-up is repeated until at least setupMinReps runs and setupMinTime have
// accumulated (at most setupMaxReps runs), so millisecond set-ups are timed
// over many repetitions; setup_s is the median. Each repetition starts from
// a collected heap, so no repetition pays for another's garbage.
const (
	setupMinReps = 5
	setupMaxReps = 200
	setupMinTime = 500 * time.Millisecond
)

// The gated times are CPU time, user plus system. host_cpu_s is the
// process's over all its threads: the simulator's own goroutines, the
// collector's, and in serve-mixed the server's and the clients'. setup_s is
// that of the one thread doing the set-up, which is serial: a millisecond
// set-up is too short for the process's rusage, which the kernel updates
// for other running threads only at scheduler ticks. The host
// shares its cores with other machines and processes, and while they are
// busy the benchmark's threads wait for a vCPU: on a 2-vCPU VM with two
// CPU-bound processes beside it, a detailed-sweep round's wall time rose
// from 1.7-2.3 s to 3.3-4.6 s while its median CPU time stayed within 5%.
// CPU time counts the work the program does; wall time, the wait a user
// has, is the per-layer host.wall_s.

// cost is what a measured section took: wall time and process CPU time.
type cost struct {
	wall, cpu time.Duration
}

// stopwatch marks the start of a measured section.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: processCPU()} }

// stop returns the section's cost so far.
func (s stopwatch) stop() cost {
	return cost{wall: time.Since(s.wall), cpu: processCPU() - s.cpu}
}

// processCPU is the CPU time the process has used, user plus system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeSetup repeats prepare and returns the median CPU time of a
// repetition, counted on the calling thread only. The teardown prepare may
// return runs untimed.
func timeSetup(prepare func() (teardown func(), err error)) (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var times []float64
	var total time.Duration
	for len(times) < setupMinReps || (total < setupMinTime && len(times) < setupMaxReps) {
		runtime.GC()
		t, c := time.Now(), threadCPU()
		teardown, err := prepare()
		if err != nil {
			return 0, err
		}
		total += time.Since(t)
		times = append(times, (threadCPU() - c).Seconds())
		if teardown != nil {
			teardown()
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups, cpu_s quartiles %.6f %.6f %.6f\n",
		len(times), quantile(times, 0.25), median(times), quantile(times, 0.75))
	return median(times), nil
}

// threadCPU is the CPU time the calling thread has used, from Linux's
// CLOCK_THREAD_CPUTIME_ID, which counts to the nanosecond (the thread's
// rusage counts in scheduler ticks).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID, which package syscall does
// not name.
const clockThreadCPUTime = 3

// budgetLeft reports whether another iteration fits in the budget: whether
// the time spent plus the slowest iteration so far stays within it. Every
// run makes at least one iteration, and none ends long past its budget.
func budgetLeft(start time.Time, budget time.Duration, iters []time.Duration) bool {
	if len(iters) == 0 {
		return true
	}
	return time.Since(start)+slices.Max(iters) <= budget
}

// measureRounds runs round while the budget has room for it, at least once,
// and returns each round's cost (as round reports it) and the peak resident
// set the process reached during the round.
func measureRounds(budget time.Duration, round func() (cost, error)) (costs []cost, rss []float64, err error) {
	start := time.Now()
	var iters []time.Duration
	for budgetLeft(start, budget, iters) {
		t := time.Now()
		resetPeakRSS()
		c, err := round()
		if err != nil {
			return nil, nil, err
		}
		costs = append(costs, c)
		rss = append(rss, peakRSSMB())
		iters = append(iters, time.Since(t))
	}
	return costs, rss, nil
}

// tracedRounds alternates an untraced round with a traced one while the
// budget has room for both, at least once: pair runs one of each and returns
// both wall times and the traced round's tracer. It returns the per-metric
// medians of the traced rounds' layer metrics, host.wall_s (median untraced
// wall) and trace.overhead_s (median traced wall minus median untraced
// wall), and writes the last traced round's spans to
// spans/<workload>-seed<n>.json under the work directory.
func tracedRounds(e *env, workload string, pair func() (plain, traced time.Duration, tr *tracer, err error)) (map[string]float64, error) {
	var plain, traced []float64
	var rounds []map[string]float64
	var last *tracer
	start := time.Now()
	var iters []time.Duration
	for budgetLeft(start, e.seconds, iters) {
		it := time.Now()
		p, t, tr, err := pair()
		if err != nil {
			return nil, err
		}
		plain = append(plain, p.Seconds())
		traced = append(traced, t.Seconds())
		rounds = append(rounds, tr.layerMetrics())
		last = tr
		iters = append(iters, time.Since(it))
	}
	m := medianMetrics(rounds)
	m["host.wall_s"] = median(plain)
	m["trace.overhead_s"] = median(traced) - median(plain)
	return m, last.write(filepath.Join(e.work, "spans", fmt.Sprintf("%s-seed%d.json", workload, e.seed)))
}

// endToEndMetrics reports a run: the median round's CPU time and its
// operations per CPU second, and the smallest per-round peak resident set.
// A round's peak depends on where the collector happened to run, which only
// ever adds to it, so the smallest peak is the memory a round needs.
func endToEndMetrics(setup float64, costs []cost, rss []float64, ops int) map[string]float64 {
	var walls, cpus []float64
	for _, c := range costs {
		walls = append(walls, c.wall.Seconds())
		cpus = append(cpus, c.cpu.Seconds())
	}
	cpu := median(cpus)
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds of %d operations, cpu_s per round %v, wall_s per round %v, peak_rss_mb per round %v\n", len(costs), ops, cpus, walls, rss)
	return map[string]float64{
		"setup_s":       setup,
		"host_cpu_s":    cpu,
		"peak_rss_mb":   slices.Min(rss),
		"ops_per_cpu_s": float64(ops) / cpu,
	}
}
