// Package workloads generates the benchmark kernels for the performance
// evaluation: fifteen single-threaded kernels named after the SPEC CPU2017
// benchmarks the paper runs (Figures 6, 8, 9) and seven multi-threaded
// kernels named after its PARSEC benchmarks (Figures 7, 8).
//
// The kernels are synthetic: each is parameterised to match the published
// microarchitectural character of its namesake — branch misprediction rate,
// load/store mix, pointer-chasing depth, working-set size, instruction-level
// parallelism — because mitigation overhead is a function of those
// characteristics, not of program semantics (see DESIGN.md, substitutions).
//
// When MTE is enabled the kernels are built "tagged": the heap is coloured
// at startup with IRG/STG (modelling an MTE-aware allocator) and every heap
// pointer carries the matching key, so the platform's tag-fetch traffic and
// the allocator's tagging instructions are both accounted — the MTE base
// cost the paper discusses for PARSEC.
package workloads

import (
	"fmt"
	"strings"

	"specasan/internal/asm"
)

// Params shapes one synthetic kernel.
type Params struct {
	// WorkingSetKB is the heap size the kernel walks; beyond 32 KB it
	// spills the L1, beyond 1 MB the L2.
	WorkingSetKB int
	// Iterations is the outer-loop trip count.
	Iterations int
	// PointerChase inserts a load->load dependent chain of this depth per
	// iteration (0 = none): the mcf/omnetpp/xalancbmk character.
	PointerChase int
	// DataBranches inserts branches whose direction depends on loaded,
	// pseudo-random data (hard to predict) per iteration.
	DataBranches int
	// BoundsChecks inserts bounds-check-shaped sequences (load, compare,
	// branch, dependent load) per iteration — the pattern speculative
	// barriers are most hostile to.
	BoundsChecks int
	// ComputeOps inserts independent ALU work per iteration (ILP).
	ComputeOps int
	// MulDivOps inserts multiply/divide work per iteration.
	MulDivOps int
	// StoreEvery makes every n-th iteration store to the heap (0 = never).
	StoreEvery int
	// Stride is the heap access stride in bytes (0 = pseudo-random).
	Stride int
	// ColdStream streams the per-iteration load over a huge, never-revisited
	// untagged region: every stream load misses to DRAM (a working set far
	// beyond the caches, at zero init cost), and the bounds check gated by
	// it opens a ~DRAM-latency speculation window each iteration.
	ColdStream bool
	// IndirectCalls adds indirect calls through a two-entry function-pointer
	// table each iteration (target alternates predictably): the surface
	// SpecCFI validates.
	IndirectCalls int
	// ExtraLoads adds load pairs each iteration: an independent load from
	// a random line, then a load whose address derives from its value.
	// The pairs are mutually independent (baseline memory-level
	// parallelism); the second load of each pair is the address-dependent
	// "transmit" shape taint-tracking defences delay.
	ExtraLoads int
}

// Spec is one named benchmark.
type Spec struct {
	Name    string
	Suite   string // "SPEC2017" or "PARSEC"
	Threads int
	Params  Params
	// Source, when non-empty, overrides the synthetic generator: Build
	// assembles it verbatim (Params and the tagged flag are ignored). The
	// harness error-path tests use it to plant kernels that time out or
	// fault on demand.
	Source string
}

// scaleIters lets the harness shrink or grow every kernel uniformly.
func (s *Spec) scaled(scale float64) Params {
	p := s.Params
	p.Iterations = int(float64(p.Iterations) * scale)
	if p.Iterations < 16 {
		p.Iterations = 16
	}
	return p
}

// SPEC returns the fifteen SPEC CPU2017 kernels of Figure 9 (the same set
// underlies Figures 6 and 8), in the paper's presentation order.
func SPEC() []*Spec {
	return []*Spec{
		{Name: "500.perlbench_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 2,
			ExtraLoads:    2,
			WorkingSetKB:  64, Iterations: 21600, DataBranches: 3, BoundsChecks: 2,
			ComputeOps: 4, StoreEvery: 3, ColdStream: true}},
		{Name: "502.gcc_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 2,
			ExtraLoads:    2,
			WorkingSetKB:  128, Iterations: 19200, DataBranches: 4, BoundsChecks: 2,
			PointerChase: 1, ComputeOps: 3, StoreEvery: 4, ColdStream: true}},
		{Name: "505.mcf_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			ExtraLoads:   1,
			WorkingSetKB: 128, Iterations: 12000, PointerChase: 4, DataBranches: 2,
			ComputeOps: 1, StoreEvery: 6, ColdStream: true}},
		{Name: "508.namd_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			ExtraLoads:   4,
			WorkingSetKB: 48, Iterations: 21600, ComputeOps: 10, MulDivOps: 3,
			Stride: 8, BoundsChecks: 0}},
		{Name: "510.parest_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			ExtraLoads:   3,
			WorkingSetKB: 96, Iterations: 19200, ComputeOps: 8, MulDivOps: 2,
			Stride: 16, BoundsChecks: 1}},
		{Name: "511.povray_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    2,
			WorkingSetKB:  32, Iterations: 21600, ComputeOps: 6, MulDivOps: 3,
			DataBranches: 2, BoundsChecks: 1}},
		{Name: "520.omnetpp_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    1,
			WorkingSetKB:  128, Iterations: 12000, PointerChase: 3, DataBranches: 3,
			StoreEvery: 4, ComputeOps: 1, ColdStream: true}},
		{Name: "523.xalancbmk_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    1,
			WorkingSetKB:  128, Iterations: 13200, PointerChase: 3, DataBranches: 2,
			BoundsChecks: 2, ComputeOps: 2, ColdStream: true}},
		{Name: "525.x264_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    3,
			WorkingSetKB:  96, Iterations: 19200, ComputeOps: 7, Stride: 8,
			DataBranches: 1, StoreEvery: 2, MulDivOps: 1}},
		{Name: "526.blender_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    2,
			WorkingSetKB:  128, Iterations: 16800, ComputeOps: 6, MulDivOps: 2,
			DataBranches: 1, BoundsChecks: 1, StoreEvery: 3}},
		{Name: "531.deepsjeng_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    2,
			WorkingSetKB:  64, Iterations: 19200, DataBranches: 4, BoundsChecks: 2,
			ComputeOps: 3, MulDivOps: 1}},
		{Name: "538.imagick_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			ExtraLoads:   4,
			WorkingSetKB: 64, Iterations: 20400, ComputeOps: 9, MulDivOps: 2,
			Stride: 8, StoreEvery: 2}},
		{Name: "541.leela_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    2,
			WorkingSetKB:  48, Iterations: 20400, DataBranches: 4, PointerChase: 1,
			ComputeOps: 3, BoundsChecks: 1}},
		{Name: "544.nab_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			ExtraLoads:   4,
			WorkingSetKB: 96, Iterations: 20400, ComputeOps: 9, MulDivOps: 3,
			Stride: 8}},
		{Name: "557.xz_r", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    2,
			WorkingSetKB:  192, Iterations: 15600, DataBranches: 3, BoundsChecks: 2,
			ComputeOps: 3, StoreEvery: 2, ColdStream: true}},
	}
}

// PARSEC returns the seven multi-threaded kernels of Figure 7.
func PARSEC() []*Spec {
	return []*Spec{
		{Name: "blackscholes", Suite: "PARSEC", Threads: 4, Params: Params{
			ExtraLoads:   4,
			WorkingSetKB: 64, Iterations: 12000, ComputeOps: 9, MulDivOps: 4,
			Stride: 8}},
		{Name: "canneal", Suite: "PARSEC", Threads: 4, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    1,
			WorkingSetKB:  128, Iterations: 7200, PointerChase: 3, DataBranches: 2,
			StoreEvery: 3, ComputeOps: 1, ColdStream: true}},
		{Name: "ferret", Suite: "PARSEC", Threads: 4, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    2,
			WorkingSetKB:  128, Iterations: 9600, ComputeOps: 5, DataBranches: 2,
			BoundsChecks: 1, MulDivOps: 1, StoreEvery: 4}},
		{Name: "fluidanimate", Suite: "PARSEC", Threads: 4, Params: Params{
			ExtraLoads:   2,
			WorkingSetKB: 192, Iterations: 9120, ComputeOps: 6, MulDivOps: 2,
			Stride: 16, DataBranches: 1, StoreEvery: 2}},
		{Name: "freqmine", Suite: "PARSEC", Threads: 4, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    1,
			WorkingSetKB:  128, Iterations: 8400, DataBranches: 3, PointerChase: 2,
			BoundsChecks: 1, ComputeOps: 2, StoreEvery: 4, ColdStream: true}},
		{Name: "streamcluster", Suite: "PARSEC", Threads: 4, Params: Params{
			ExtraLoads:   3,
			WorkingSetKB: 256, Iterations: 8400, ComputeOps: 7, MulDivOps: 2,
			Stride: 8, DataBranches: 1}},
		{Name: "swaptions", Suite: "PARSEC", Threads: 4, Params: Params{
			ExtraLoads:   3,
			WorkingSetKB: 48, Iterations: 12000, ComputeOps: 8, MulDivOps: 4,
			DataBranches: 1}},
	}
}

// Scaled returns the parameter-sweep variants behind the scaled-kernel
// scenario presets in examples/scenarios/: registry kernels pushed outside
// their namesakes' published envelope — warm working sets past the 1 MB L2
// (tag fetches ride DRAM-bound accesses instead of hitting tagged caches),
// pointer chains about twice as deep (each iteration holds a longer
// speculation window open), and single-threaded kernels run 4-core SPMD over
// partitioned heaps. Deliberately not part of SPEC()/PARSEC(): the figure
// sweeps reproduce the paper, these probe beyond it.
func Scaled() []*Spec {
	return []*Spec{
		// Working sets past the L2.
		{Name: "505.mcf_r.l2spill", Suite: "SPEC2017", Threads: 1, Params: Params{
			ExtraLoads:   1,
			WorkingSetKB: 2048, Iterations: 9600, PointerChase: 4, DataBranches: 2,
			ComputeOps: 1, StoreEvery: 6, ColdStream: true}},
		{Name: "520.omnetpp_r.l2spill", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    1,
			WorkingSetKB:  2048, Iterations: 9600, PointerChase: 3, DataBranches: 3,
			StoreEvery: 4, ComputeOps: 1, ColdStream: true}},
		{Name: "streamcluster.l2spill", Suite: "PARSEC", Threads: 4, Params: Params{
			ExtraLoads:   3,
			WorkingSetKB: 4096, Iterations: 6000, ComputeOps: 7, MulDivOps: 2,
			Stride: 8, DataBranches: 1}},
		// Deeper pointer chasing.
		{Name: "505.mcf_r.deepchase", Suite: "SPEC2017", Threads: 1, Params: Params{
			ExtraLoads:   1,
			WorkingSetKB: 512, Iterations: 7200, PointerChase: 8, DataBranches: 2,
			ComputeOps: 1, StoreEvery: 6, ColdStream: true}},
		{Name: "523.xalancbmk_r.deepchase", Suite: "SPEC2017", Threads: 1, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    1,
			WorkingSetKB:  512, Iterations: 7800, PointerChase: 6, DataBranches: 2,
			BoundsChecks: 2, ComputeOps: 2, ColdStream: true}},
		// Single-threaded kernels run 4-core SPMD over partitioned heaps.
		{Name: "505.mcf_r.spmd4", Suite: "SPEC2017", Threads: 4, Params: Params{
			ExtraLoads:   1,
			WorkingSetKB: 512, Iterations: 12000, PointerChase: 4, DataBranches: 2,
			ComputeOps: 1, StoreEvery: 6, ColdStream: true}},
		{Name: "531.deepsjeng_r.spmd4", Suite: "SPEC2017", Threads: 4, Params: Params{
			IndirectCalls: 1,
			ExtraLoads:    2,
			WorkingSetKB:  256, Iterations: 19200, DataBranches: 4, BoundsChecks: 2,
			ComputeOps: 3, MulDivOps: 1}},
	}
}

// ByName finds a benchmark in either suite, or among the scaled variants.
func ByName(name string) *Spec {
	for _, s := range append(append(SPEC(), PARSEC()...), Scaled()...) {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// heapBase is where the kernel heap lives.
const heapBase = 0x200000

// Build assembles the kernel. tagged selects MTE instrumentation; scale
// multiplies the iteration count (1.0 = default).
func (s *Spec) Build(tagged bool, scale float64) (*asm.Program, error) {
	if s.Source != "" {
		return asm.Assemble(s.Source)
	}
	src := Generate(s.scaled(scale), s.Threads, tagged)
	return asm.Assemble(src)
}

// Generate emits the kernel's assembly text.
//
// Register conventions: X0 = thread id (pre-set by the harness for
// multi-threaded runs), X10 = heap pointer (tagged under MTE), X6 = LCG
// state, X5 = accumulator, X12 = outer loop counter, X1-X4, X7-X9, X13-X17
// scratch.
func Generate(p Params, threads int, tagged bool) string {
	var b strings.Builder
	emit := func(format string, args ...interface{}) {
		fmt.Fprintf(&b, format+"\n", args...)
	}

	heapBytes := p.WorkingSetKB * 1024
	if heapBytes < 4096 {
		heapBytes = 4096
	}
	// Per-thread partition, so SPMD threads touch disjoint heap slices.
	// The warm heap is line-granular: one live slot per 64-byte line.
	partBytes := heapBytes / threads
	mask := indexMask(partBytes)
	lineMask := mask &^ 63

	emit("_start:")
	emit("    MOV X10, #%d", heapBase)
	if threads > 1 {
		// X0 = thread id (harness-set); offset the partition.
		emit("    MOV X1, #%d", partBytes)
		emit("    MUL X1, X0, X1")
		emit("    ADD X10, X10, X1")
	}
	// X20: cold-stream cursor over a large untagged region (per thread).
	emit("    MOV X20, #%d", coldBase)
	emit("    MOV X1, #%d", 64*1024*1024)
	emit("    MUL X1, X0, X1")
	emit("    ADD X20, X20, X1")
	if tagged {
		// Allocator tags the warm partition's live granules.
		emit("    IRG X10, X10")
		emit("    MOV X13, X10")
		emit("    MOV X14, #%d", partBytes/64)
		emit("tagloop:")
		emit("    STG X13, [X13]")
		emit("    ADDG X13, X13, #64, #0")
		emit("    SUB X14, X14, #1")
		emit("    CBNZ X14, tagloop")
	}
	// Seed the LCG with the thread id so threads diverge.
	emit("    MOV X6, #88172645463325")
	emit("    ADD X6, X6, X0")
	emit("    MOV X7, #6364136223846793005")
	emit("    MOV X8, #1442695040888963407")
	emit("    MOV X5, #0")

	// Initialise the live slot of every warm line with a pseudo-random
	// in-partition line pointer (chase target / data value in one).
	emit("    MOV X13, X10")
	emit("    MOV X14, #%d", partBytes/64)
	emit("init:")
	emit("    MUL X6, X6, X7")
	emit("    ADD X6, X6, X8")
	emit("    LSR X2, X6, #33")
	emit("    AND X2, X2, #%d", lineMask)
	emit("    ADD X2, X10, X2  // random in-partition line address")
	emit("    STR X2, [X13]")
	emit("    ADD X13, X13, #64")
	emit("    SUB X14, X14, #1")
	emit("    CBNZ X14, init")

	emit("    MOV X12, #%d", p.Iterations)
	emit("    MOV X15, X10     // chase cursor")
	emit("    B loop")
	emit("    .align 64        // identical hot-loop alignment in tagged")
	emit("loop:") // and untagged builds

	// Advance the LCG; X4 = this iteration's warm line.
	emit("    MUL X6, X6, X7")
	emit("    ADD X6, X6, X8")
	emit("    LSR X2, X6, #33")
	if p.Stride > 0 {
		emit("    MOV X3, #%d", p.Iterations)
		emit("    SUB X3, X3, X12  // ascending stride index")
		emit("    MOV X13, #%d", p.Stride*64)
		emit("    MUL X3, X3, X13")
		emit("    AND X3, X3, #%d", lineMask)
	} else {
		emit("    AND X3, X2, #%d", lineMask)
	}
	emit("    ADD X4, X10, X3")

	label := 0
	if p.ColdStream {
		// Cold stream load: always a DRAM miss; the bounds check gated by
		// it is perfectly predictable but resolves only when the data
		// returns, so the rest of the iteration runs speculatively under a
		// ~DRAM-latency window. The baseline overlaps several iterations'
		// misses (MLP); delay-based defences give that overlap up.
		emit("    ADD X20, X20, #64")
		emit("    LDR X1, [X20]    // cold stream: misses to DRAM")
		emit("    CMP X1, #%d", 1<<30)
		emit("    B.HS oob%d       // bounds check: never taken", label)
	} else {
		emit("    LDR X1, [X4]     // warm stream load")
	}

	// Data-dependent branches on loaded pseudo-random bits (warm value):
	// genuinely mispredictable, biased ~6%% taken (SPEC-like rates), each
	// guarding a short inline block so wrong paths stay small.
	for i := 0; i < p.DataBranches; i++ {
		emit("    LDR X9, [X4]")
		emit("    LSR X13, X9, #%d", 7+4*i)
		emit("    AND X13, X13, #15")
		emit("    CBNZ X13, db%d", label+100+i)
		emit("    ADD X5, X5, #%d", i+1)
		emit("    EOR X5, X5, X9")
		emit("db%d:", label+100+i)
	}

	// Bounds-check-shaped dependent loads under the window.
	for i := 0; i < p.BoundsChecks; i++ {
		emit("    AND X9, X2, #%d", lineMask)
		emit("    ADD X13, X10, X9")
		emit("    LDR X14, [X13]")
		emit("    AND X14, X14, #%d", lineMask)
		emit("    ADD X14, X10, X14")
		emit("    LDR X14, [X14, #8]  // address-dependent second load")
		emit("    ADD X5, X5, X14")
	}

	// Pointer chase: serial load->load chain over the warm heap, with the
	// cursor re-canonicalised to stay tag-valid and in-partition.
	for i := 0; i < p.PointerChase; i++ {
		emit("    LDR X15, [X15]   // chase")
	}
	if p.PointerChase > 0 {
		emit("    AND X15, X15, #%d", lineMask)
		emit("    ADD X15, X10, X15")
	}

	// Load pairs: an independent random-line load feeding an
	// address-dependent second load (the STT "transmit" shape).
	for i := 0; i < p.ExtraLoads; i++ {
		emit("    LSR X13, X6, #%d", 13+5*i)
		emit("    AND X13, X13, #%d", lineMask)
		emit("    ADD X13, X10, X13")
		emit("    LDR X14, [X13]")
		emit("    AND X14, X14, #%d", lineMask)
		emit("    ADD X14, X10, X14")
		emit("    LDR X14, [X14]")
		emit("    ADD X5, X5, X14")
	}

	// Indirect calls through a function-pointer table (BTI-legal targets).
	// The target switches every 16 iterations: predictable runs, so the
	// baseline cost is the call itself, not mispredict chaos.
	for i := 0; i < p.IndirectCalls; i++ {
		emit("    LSR X13, X12, #4")
		emit("    AND X13, X13, #1")
		emit("    LSL X13, X13, #3")
		emit("    ADR X14, fntab")
		emit("    ADD X14, X14, X13")
		emit("    LDR X13, [X14]")
		emit("    BLR X13")
	}

	// Compute: work dependent on the loaded values plus independent ILP.
	for i := 0; i < p.ComputeOps; i++ {
		r := 16 + i%2
		switch i % 4 {
		case 0:
			emit("    ADD X%d, X1, #%d", r, i*3+1)
		case 1:
			emit("    EOR X%d, X%d, X2", r, r)
		case 2:
			emit("    LSR X%d, X2, #%d", r, (i%7)+1)
		case 3:
			emit("    ADD X5, X5, X%d", r)
		}
	}
	for i := 0; i < p.MulDivOps; i++ {
		if i%3 == 2 {
			emit("    ORR X16, X2, #1")
			emit("    UDIV X17, X6, X16")
		} else {
			emit("    MUL X16, X2, X7")
		}
	}

	// Periodic store: overwrite the live warm slot with a valid line
	// pointer so later chase hops through it stay tag-safe.
	if p.StoreEvery > 0 {
		emit("    AND X14, X12, #%d", p.StoreEvery-1)
		emit("    CBNZ X14, nost%d", label)
		emit("    AND X13, X5, #%d", lineMask)
		emit("    ADD X13, X10, X13")
		emit("    STR X13, [X4]")
		emit("nost%d:", label)
	}

	if p.ColdStream {
		emit("oob%d:", label)
	}

	emit("    SUB X12, X12, #1")
	emit("    CBNZ X12, loop")
	emit("    SVC #0")
	if p.IndirectCalls > 0 {
		emit("fn0:")
		emit("    BTI")
		emit("    ADD X5, X5, #1")
		emit("    RET")
		emit("fn1:")
		emit("    BTI")
		emit("    EOR X5, X5, X2")
		emit("    RET")
		emit("    .align 8")
		emit("fntab:")
		emit("    .word fn0, fn1")
	}
	return b.String()
}

// coldBase is where the cold-stream region starts (per-thread 64 MiB).
const coldBase = 0x10000000

// indexMask returns a power-of-two-minus-one mask covering the partition.
func indexMask(partBytes int) int {
	m := 1
	for m*2 <= partBytes {
		m *= 2
	}
	return m - 1
}
