package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// hostInfo fingerprints the machine a result was measured on. The SHA-256
// probe hashes a fixed buffer, so a slow or contended host shows up in the
// record beside the numbers it slowed.
type hostInfo struct {
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	SHA256MBPerS float64 `json:"sha256_mb_per_s"`
}

func fingerprint() hostInfo {
	return hostInfo{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		SHA256MBPerS: sha256Probe(),
	}
}

// nproc is the worker and client count of a workload: GOMAXPROCS, which is
// the vCPU count unless the workload sets its own.
func nproc() int { return runtime.GOMAXPROCS(0) }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sha256Probe returns the best of five timings of hashing 16 MiB, in MB/s.
func sha256Probe() float64 {
	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		t := time.Now()
		sha256.Sum256(buf)
		best = min(best, time.Since(t))
	}
	return float64(len(buf)) / 1e6 / best.Seconds()
}

// resetPeakRSS starts a new peak-resident-set window from a collected heap
// returned to the OS, so each window's peak does not depend on how much
// garbage the previous one left: Linux resets the process's high-water mark
// to its current resident set.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // on failure the window spans the whole run
}

// peakRSSMB is the process's peak resident set since the last resetPeakRSS,
// in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
