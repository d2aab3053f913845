package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/machine"
	"repro/internal/svc"
)

// metricDef names one metric of the catalogue. The declared metrics are
// listed with the same names, units and directions in BENCHMARK.json at
// the repository root (a test keeps the two in step), which adds their
// regression bounds; they make up a run's JSON result line. Every metric
// is printed and kept in BENCH files.
type metricDef struct {
	name, unit   string
	declared     bool
	higherBetter bool
}

// endToEnd is the end-to-end catalogue, measured with tracing off. The
// latency and throughput metrics are printed but not declared: on a
// shared host their spread over ten runs has exceeded the largest
// allowed bound (see README.md). fail_ratio is printed beside these and
// travels in the result's attempted/failed counts.
var endToEnd = []metricDef{
	{"setup_s", "s", true, false},
	{"ns_per_ref", "ns", true, false},
	{"points_per_s", "1/s", false, true},
	{"op_ms_p50", "ms", false, false},
	{"op_ms_p95", "ms", false, false},
	{"allocs_per_op", "count", true, false},
	{"bytes_per_op", "B", true, false},
	{"max_rss_mb", "MB", true, false},
}

// perLayer is the traced run's catalogue. The sweep and svc metrics
// exist only for the service workload, so they are not declared.
var perLayer = []metricDef{
	{"pfl.parse_us", "us", true, false},
	{"pfl.check_us", "us", true, false},
	{"prog.build_us", "us", true, false},
	{"sections.analyze_us", "us", true, false},
	{"marking.compute_us", "us", true, false},
	{"sim.lower_us", "us", true, false},
	{"core.new_system_us", "us", true, false},
	{"core.new_system_allocs", "count", true, false},
	{"core.release_us", "us", true, false},
	{"core.invariants_us", "us", true, false},
	{"sim.run_self_ms", "ms", true, false},
	{"sim.stream_loops_per_run", "count", true, true},
	{"sim.stream_fallbacks_per_run", "count", true, false},
	{"sim.stream_loop_share", "fraction", true, true},
	{"sim.epochs_per_run", "count", true, false},
	{"sim.epoch_us_p50", "us", true, false},
	{"sim.epoch_us_p95", "us", true, false},
	{"sim.hostpar_epoch_share", "fraction", true, true},
	{"memsys.refs_per_run", "count", true, false},
	{"memsys.read_miss_ratio", "fraction", true, false},
	{"memsys.coherence_words_per_ref", "words", true, false},
	{"go.gc_cycles_per_op", "count", true, false},
	{"go.gc_cpu_share", "fraction", true, false},
	{"sweep.batch_ms_p50", "ms", false, false},
	{"sweep.batch_ms_p95", "ms", false, false},
	{"sweep.retries", "count", false, false},
	{"sweep.redundant_sim_ratio", "ratio", false, false},
	{"svc.queue_ms_p50", "ms", false, false},
	{"svc.queue_ms_p95", "ms", false, false},
	{"svc.run_ms_p50", "ms", false, false},
	{"svc.compile_ms_mean", "ms", false, false},
	{"svc.result_cache_hit_ratio", "fraction", false, true},
	{"svc.compile_cache_hit_ratio", "fraction", false, true},
	{"svc.http_overhead_ms_p50", "ms", false, false},
}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"trfd-stream", "mixed-kernels", "large-p", "sweep-service"}

// variant is one machine configuration a simulation workload runs every
// kernel under.
type variant struct {
	name string
	cfg  machine.Config
}

// schemeVariants are the eight scheme variants at the paper's default
// machine (fast path on, host parallelism off).
func schemeVariants() []variant {
	tpi2l := machine.Default(machine.SchemeTPI)
	tpi2l.L1Words = 1024
	return []variant{
		{"BASE", machine.Default(machine.SchemeBase)},
		{"SC", machine.Default(machine.SchemeSC)},
		{"TPI", machine.Default(machine.SchemeTPI)},
		{"TPI2L", tpi2l},
		{"HW", machine.Default(machine.SchemeHW)},
		{"VC", machine.Default(machine.SchemeVC)},
		{"TARDIS", machine.Default(machine.SchemeTardis)},
		{"TARDIS2", machine.Default(machine.SchemeTardis2)},
	}
}

// largePVariants are the large-machine cells: a clustered mesh at two
// sizes under the three schemes built for it, plus two torus cells, all
// sharded over two host workers.
func largePVariants(meshProcs []int, torusProcs int) []variant {
	var vs []variant
	for _, p := range meshProcs {
		for _, v := range schemeVariants() {
			if v.name != "HW" && v.name != "TPI2L" && v.name != "TARDIS2" {
				continue
			}
			cfg := v.cfg
			cfg.Procs = p
			cfg.Topology = "mesh"
			cfg.ClusterSize = 16
			cfg.HostParallel = 2
			vs = append(vs, variant{fmt.Sprintf("%s/mesh%d", v.name, p), cfg})
		}
	}
	for _, s := range []machine.Scheme{machine.SchemeTPI, machine.SchemeHW} {
		cfg := machine.Default(s)
		cfg.Procs = torusProcs
		cfg.Topology = "torus"
		cfg.HostParallel = 2
		vs = append(vs, variant{fmt.Sprintf("%s/torus%d", s, torusProcs), cfg})
	}
	return vs
}

// simSpec is a simulation workload: every kernel under every variant in
// each pass, with each kernel's N drawn per pass from ns. A run is a
// fixed number of blocks (see schedule) and repeats its set-up
// setupReps times, so every run of every commit does the same work.
type simSpec struct {
	name      string
	kernels   []string
	steps     int
	ns        []int
	variants  []variant
	blocks    int
	setupReps int
}

// simSpecs returns the three simulation workloads; quick shrinks them to
// test size. The block counts give about 17 s of timed work each on the
// reference host (README.md), the set-up counts one to two seconds.
func simSpecs(quick bool) []simSpec {
	ns := []int{40, 44, 48, 52, 56}
	meshProcs, torusProcs := []int{1024, 4096}, 256
	if quick {
		ns = []int{8, 12}
		meshProcs, torusProcs = []int{64, 128}, 16
	}
	spec := func(name string, kernels []string, variants []variant, steps, blocks, setupReps int) simSpec {
		if quick {
			steps, blocks, setupReps = 1, 1, 2
		}
		return simSpec{name, kernels, steps, ns, variants, blocks, setupReps}
	}
	return []simSpec{
		// The stream cursors and the write-buffer cache do most of the
		// work; compile and construction are negligible.
		spec("trfd-stream", []string{"trfd"}, schemeVariants(), 1, 10, 5),
		// Runs of a few milliseconds make per-run construction, release
		// and epoch barriers a larger share; qcd2's gather gets no stream
		// gain.
		spec("mixed-kernels", []string{"spec77", "ocean", "flo52", "qcd2", "arc2d"}, schemeVariants(), 2, 12, 7),
		// Few references over thousands of processors: lazy construction,
		// wide presence sets, barrier merge/replay and host sharding.
		spec("large-p", []string{"ocean"}, largePVariants(meshProcs, torusProcs), 2, 44, 21),
	}
}

// findSimSpec returns the named simulation workload.
func findSimSpec(name string, quick bool) (simSpec, bool) {
	for _, s := range simSpecs(quick) {
		if s.name == name {
			return s, true
		}
	}
	return simSpec{}, false
}

// seededRand derives a workload's generator from the run seed, so every
// workload gets its own stream and a seed reproduces all of them.
func seededRand(seed uint64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// opRef names one simulation op: kernel index, N index, variant index.
type opRef struct {
	kernel, n, variant int
}

// schedule draws the passes of one block from rng: per kernel a
// permutation of the N values, and per pass a shuffled op order. Within
// a block of len(ns) passes every kernel runs once at each N, so every
// seed does the same work per block and only the order differs; that
// keeps per-op numbers comparable across seeds.
func (s simSpec) schedule(rng *rand.Rand) [][]opRef {
	perms := make([][]int, len(s.kernels))
	for k := range s.kernels {
		perms[k] = rng.Perm(len(s.ns))
	}
	passes := make([][]opRef, len(s.ns))
	for p := range passes {
		ops := make([]opRef, 0, len(s.kernels)*len(s.variants))
		for k := range s.kernels {
			for v := range s.variants {
				ops = append(ops, opRef{k, perms[k][p], v})
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		passes[p] = ops
	}
	return passes
}

// point is one sweep-service grid point.
type point struct {
	kernel    string
	scheme    string
	n         int
	procs     int
	lineWords int
}

// pointSteps is the kernel time-step count of every sweep point.
const pointSteps = 2

func (p point) label() string {
	return fmt.Sprintf("%s/%s/n%d/p%d/l%d", p.kernel, p.scheme, p.n, p.procs, p.lineWords)
}

func (p point) request() svc.RunRequest {
	cfg, _ := json.Marshal(map[string]int{"Procs": p.procs, "LineWords": p.lineWords}) // a map of ints always marshals
	return svc.RunRequest{Kernel: p.kernel, N: p.n, Steps: pointSteps, Scheme: p.scheme, Config: cfg}
}

// pointSpace is the grid fresh points are drawn from.
type pointSpace struct {
	kernels   []string
	schemes   []string
	nLo, nHi  int
	procs     []int
	lineWords []int
}

// repeatRate is the share of sweep points that re-submit an earlier one.
const repeatRate = 0.4

func sweepSpace(quick bool) pointSpace {
	sp := pointSpace{
		kernels:   []string{"spec77", "ocean", "flo52", "qcd2", "trfd", "arc2d"},
		schemes:   machine.SchemeNames(),
		nLo:       12,
		nHi:       32,
		procs:     []int{4, 8, 16},
		lineWords: []int{1, 2, 4, 8},
	}
	if quick {
		sp.nLo, sp.nHi = 6, 10
		sp.procs = []int{2, 4}
		sp.lineWords = []int{2, 4}
	}
	return sp
}

// pointStream generates the sweep-service point stream: each point is
// fresh from the grid, or (at repeatRate) a re-submission of a uniformly
// chosen earlier point.
type pointStream struct {
	sp   pointSpace
	rng  *rand.Rand
	seen []point
}

func newPointStream(seed uint64, quick bool) *pointStream {
	return &pointStream{sp: sweepSpace(quick), rng: seededRand(seed, "sweep-service")}
}

func (ps *pointStream) next() point {
	r := ps.rng
	if len(ps.seen) > 0 && r.Float64() < repeatRate {
		p := ps.seen[r.IntN(len(ps.seen))]
		ps.seen = append(ps.seen, p)
		return p
	}
	p := point{
		kernel:    ps.sp.kernels[r.IntN(len(ps.sp.kernels))],
		scheme:    ps.sp.schemes[r.IntN(len(ps.sp.schemes))],
		n:         ps.sp.nLo + r.IntN(ps.sp.nHi-ps.sp.nLo+1),
		procs:     ps.sp.procs[r.IntN(len(ps.sp.procs))],
		lineWords: ps.sp.lineWords[r.IntN(len(ps.sp.lineWords))],
	}
	ps.seen = append(ps.seen, p)
	return p
}
