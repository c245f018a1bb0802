package main

// Seeded input generation. The seed picks every input a workload runs —
// which cells of the pinned pools, the serve job stream and its repeats, the
// fuzz seed — and the program under test receives only the result. Any seed
// works, so a claim made on one seed can be rechecked on a held-out one.
//
// Pool entries carry a per-kernel scale chosen so that every kernel's row of
// five mitigation cells costs about the same host time. A draw of k kernels
// then costs about the same for every seed, so medians taken over different
// seeds compare the code rather than the draw. The scales change how many
// iterations a kernel runs, never its shape. An equal-cost mix is an
// assumption — a user sizing each kernel to one time budget — not the mix of
// a Figure-6 run at scale 1, whose kernels differ about fourfold in cost.

import (
	"fmt"
	"math"

	"specasan/internal/core"
	"specasan/internal/harness"
	"specasan/internal/workloads"
)

// rng is splitmix64: small, fast and fully determined by its seed.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*0x100000001b3 ^ uint64(c)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// sample draws k distinct indices of [0, n) in draw order.
func (r *rng) sample(n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// poolEntry is one kernel of a pinned pool at its pinned scale.
type poolEntry struct {
	kernel string
	scale  float64
}

// spec returns the kernel's registry spec with the pool scale folded into its
// iteration count (the harness's own scaling rule), so cells of different
// scales can share one sweep run at Options.Scale 1.
func (p poolEntry) spec() *workloads.Spec {
	s := *workloads.ByName(p.kernel)
	s.Params.Iterations = scaledIterations(s.Params.Iterations, p.scale)
	return &s
}

// scaledIterations is the harness's scaling rule: iterations times scale,
// floor 16.
func scaledIterations(iters int, scale float64) int {
	n := int(float64(iters) * scale)
	if n < 16 {
		n = 16
	}
	return n
}

// cellKey names a (kernel, mitigation) cell in the reference tables.
func cellKey(kernel string, mit core.Mitigation) string {
	return kernel + "|" + mit.String()
}

// figure6 are the mitigation columns of Figures 6 and 7: every sweep cell
// runs under each.
var figure6 = harness.Figure6Mitigations()

// detailedSPEC and detailedPARSEC are the detailed-sweep pools. A draw takes
// detailedSPECDraw single-core kernels and one 4-core kernel.
var detailedSPEC = []poolEntry{
	{"500.perlbench_r", 0.0657}, {"502.gcc_r", 0.0597}, {"505.mcf_r", 0.197},
	{"508.namd_r", 0.237}, {"510.parest_r", 0.199}, {"511.povray_r", 0.207},
	{"520.omnetpp_r", 0.148}, {"523.xalancbmk_r", 0.143}, {"525.x264_r", 0.136},
	{"526.blender_r", 0.165}, {"531.deepsjeng_r", 0.116}, {"538.imagick_r", 0.162},
	{"541.leela_r", 0.148}, {"544.nab_r", 0.174}, {"557.xz_r", 0.0936},
}

// The 4-core kernels run rows about twice as long as the single-core ones:
// they are the pool's stragglers.
var detailedPARSEC = []poolEntry{
	{"blackscholes", 0.0864}, {"fluidanimate", 0.105}, {"swaptions", 0.09},
}

const detailedSPECDraw = 5

// drawDetailed returns the seed's detailed-sweep kernels.
func drawDetailed(seed uint64) []poolEntry {
	r := newRNG(seed, "detailed")
	var out []poolEntry
	for _, i := range r.sample(len(detailedSPEC), detailedSPECDraw) {
		out = append(out, detailedSPEC[i])
	}
	return append(out, detailedPARSEC[r.intn(len(detailedPARSEC))])
}

// sampledPool is the sampled-sweep pool: SPEC kernels at a large scale. A
// draw takes sampledDraw of them.
var sampledPool = []poolEntry{
	{"500.perlbench_r", 4.44}, {"502.gcc_r", 4.6}, {"505.mcf_r", 11.1},
	{"508.namd_r", 13.4}, {"510.parest_r", 13.7}, {"511.povray_r", 8.95},
	{"520.omnetpp_r", 7.77}, {"523.xalancbmk_r", 7.06}, {"525.x264_r", 8.5},
	{"526.blender_r", 7.81}, {"531.deepsjeng_r", 7.49}, {"538.imagick_r", 11},
	{"541.leela_r", 8.78}, {"544.nab_r", 12.8}, {"557.xz_r", 5.04},
}

const sampledDraw = 4

// The sampling plan of the sampled sweep: windowed mode, the windows spread
// over the run after a fixed functional prefix.
const (
	sampledFastForward  = 100_000
	sampledWindows      = 4
	sampledWindowInsts  = 20_000
	maxCycles           = 200_000_000
	sampledTouchRing    = 1 << 15 // harness warmTouches: functional touches replayed into each window
	functionalInstWidth = 8       // harness functionalBudget: instructions per budgeted cycle
)

func drawSampled(seed uint64) []poolEntry {
	r := newRNG(seed, "sampled")
	var out []poolEntry
	for _, i := range r.sample(len(sampledPool), sampledDraw) {
		out = append(out, sampledPool[i])
	}
	return out
}

// sweepOptions are the harness options of both sweeps: default settings,
// scale folded into each spec, sampling on for the sampled sweep.
func sweepOptions(workers int, sampled bool) harness.Options {
	opt := harness.DefaultOptions()
	opt.Workers = workers
	if sampled {
		opt.FastForwardInsts = sampledFastForward
		opt.SampleWindows = sampledWindows
		opt.SampleWindowInsts = sampledWindowInsts
	}
	return opt
}

// fuzzSeeds are the fuzz seeds the workload seed picks from: every pinned
// seed. fuzzBatch is the candidate count of the one fuzzer.Run call a round
// makes: four of the fuzzer's 64-candidate batches, a short campaign.
var fuzzSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

const fuzzBatch = 256

func drawFuzzSeed(seed uint64) uint64 {
	return fuzzSeeds[newRNG(seed, "fuzz").intn(len(fuzzSeeds))]
}

// serveJob is one job of the serve-mixed stream: a one-cell scenario
// document. repeatOf >= 0 marks a resubmission of an earlier job of the same
// session, which the server must answer from its store.
type serveJob struct {
	doc      []byte
	kernel   string
	mit      core.Mitigation
	scale    float64
	repeatOf int // index into the session's jobs, -1 for a cold job
}

// servePool are the serve-mixed kernels at their base scales: small
// scenarios, each cold cell simulating for about 50 ms of host time.
var servePool = []poolEntry{
	{"500.perlbench_r", 0.024}, {"502.gcc_r", 0.0195}, {"505.mcf_r", 0.06},
	{"508.namd_r", 0.072}, {"510.parest_r", 0.0615}, {"511.povray_r", 0.069},
	{"520.omnetpp_r", 0.048}, {"523.xalancbmk_r", 0.0495}, {"525.x264_r", 0.045},
	{"526.blender_r", 0.054}, {"531.deepsjeng_r", 0.045}, {"538.imagick_r", 0.06},
	{"541.leela_r", 0.0675}, {"544.nab_r", 0.0675}, {"557.xz_r", 0.027},
}

// The serve-mixed stream: serveSessions closed-loop sessions of
// serveSessionJobs jobs each, serveColdPerSession of them cold. Sessions,
// not clients, own the repeats, so the stream does not depend on the client
// count and a repeat always follows its cold job's reply.
//
// Half the jobs are cold. The repo records no serve traffic; the ROADMAP
// names "a cold and a cached specasan-serve job" as the two waits a user
// has, so the stream weights them equally. That share is an assumption, not
// a measured mix. 200 cached jobs per round give the cached p95 ten samples
// beyond it.
const (
	serveSessions       = 10
	serveSessionJobs    = 40
	serveColdPerSession = 20
)

// drawServe builds the seed's job stream. Every cold job is a cell no other
// job has: its (kernel, mitigation) pair is drawn without replacement and
// its scale carries a per-stream variant step, so cold jobs never hit the
// store and repeats always do.
func drawServe(seed uint64) [][]serveJob {
	r := newRNG(seed, "serve")
	nCold := serveSessions * serveColdPerSession
	pairs := len(servePool) * len(figure6)
	cold := make([]serveJob, 0, nCold)
	for variant := 0; len(cold) < nCold; variant++ {
		for _, i := range r.sample(pairs, min(pairs, nCold-len(cold))) {
			p := servePool[i/len(figure6)]
			mit := figure6[i%len(figure6)]
			scale := math.Round(p.scale*(1+0.03*float64(variant))*1e6) / 1e6
			cold = append(cold, serveJob{kernel: p.kernel, mit: mit, scale: scale, repeatOf: -1})
		}
	}
	sessions := make([][]serveJob, serveSessions)
	for s := range sessions {
		// The first job of a session is cold; the rest of its cold jobs land
		// at seeded positions, and every other position repeats a seeded
		// earlier cold job of the session.
		isCold := make([]bool, serveSessionJobs)
		isCold[0] = true
		for _, pos := range r.sample(serveSessionJobs-1, serveColdPerSession-1) {
			isCold[pos+1] = true
		}
		var coldIdx []int
		jobs := make([]serveJob, serveSessionJobs)
		for i := range jobs {
			if isCold[i] {
				jobs[i] = cold[s*serveColdPerSession+len(coldIdx)]
				jobs[i].doc = serveDoc(jobs[i], seed, s, i)
				coldIdx = append(coldIdx, i)
				continue
			}
			src := coldIdx[r.intn(len(coldIdx))]
			jobs[i] = jobs[src]
			jobs[i].repeatOf = src
		}
		sessions[s] = jobs
	}
	return sessions
}

// serveDoc renders a cold job's scenario document.
func serveDoc(j serveJob, seed uint64, session, idx int) []byte {
	return []byte(fmt.Sprintf(`{"version": 1, "name": "perfbench-%d-%d-%d", "workloads": [%q], "mitigations": [%q], "run": {"scale": %g}}`,
		seed, session, idx, j.kernel, j.mit.String(), j.scale))
}
