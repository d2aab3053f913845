package repro

// One benchmark per table/figure of the paper's evaluation (DESIGN.md
// experiment index). Each benchmark regenerates its table through the
// experiment harness and reports the headline quantity as a custom
// metric, so `go test -bench=. -benchmem` doubles as a full (small-size)
// reproduction run. cmd/experiments produces the same tables at the
// paper workload size.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overhead"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func suite() *exper.Suite {
	return exper.NewSuite(bench.Params{N: 16, Steps: 2}, 8)
}

func cell(tab *exper.Table, row, col int) float64 {
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// BenchmarkFig5StorageOverhead regenerates E1 (Figure 5).
func BenchmarkFig5StorageOverhead(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		c := overhead.PaperDefault()
		fm := overhead.FullMap(c)
		tp := overhead.TPI(c)
		ratio = float64(fm.Total()) / float64(tp.Total())
	}
	b.ReportMetric(ratio, "fullmap/tpi-bits")
}

// BenchmarkFig11MissRates regenerates E3 (Figure 11).
func BenchmarkFig11MissRates(b *testing.B) {
	var tpi, hw float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E3MissRates()
		if err != nil {
			b.Fatal(err)
		}
		// ocean row: columns benchmark, BASE, SC, TPI, HW
		tpi, hw = cell(tab, 1, 3), cell(tab, 1, 4)
	}
	b.ReportMetric(tpi, "ocean-tpi-miss%")
	b.ReportMetric(hw, "ocean-hw-miss%")
}

// BenchmarkMissClassification regenerates E4 (miss decomposition).
func BenchmarkMissClassification(b *testing.B) {
	var conserv float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E4MissClassification()
		if err != nil {
			b.Fatal(err)
		}
		conserv = cell(tab, 0, 6) // spec77/TPI conservative per 1000 reads
	}
	b.ReportMetric(conserv, "spec77-conserv/1k")
}

// BenchmarkNetworkTraffic regenerates E5 (traffic figure).
func BenchmarkNetworkTraffic(b *testing.B) {
	var trfdWrite, trfdWriteNoWbc float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E5NetworkTraffic()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tab.Rows {
			if r[0] == "trfd" && r[1] == "TPI" {
				trfdWrite, _ = strconv.ParseFloat(r[3], 64)
			}
			if r[0] == "trfd" && r[1] == "TPI-nowbc" {
				trfdWriteNoWbc, _ = strconv.ParseFloat(r[3], 64)
			}
		}
	}
	b.ReportMetric(trfdWrite, "trfd-write-wpr")
	b.ReportMetric(trfdWriteNoWbc, "trfd-write-nowbc-wpr")
}

// BenchmarkMissLatency regenerates E6 (average miss latency table).
func BenchmarkMissLatency(b *testing.B) {
	var tpiQcd, hwQcd float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E6MissLatency()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tab.Rows {
			if r[0] == "qcd2" {
				tpiQcd, _ = strconv.ParseFloat(r[1], 64)
				hwQcd, _ = strconv.ParseFloat(r[3], 64)
			}
		}
	}
	b.ReportMetric(tpiQcd, "qcd2-tpi-lat")
	b.ReportMetric(hwQcd, "qcd2-hw-lat")
}

// BenchmarkExecutionTime regenerates E7 (normalized execution time).
func BenchmarkExecutionTime(b *testing.B) {
	var tpiNorm float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E7ExecutionTime()
		if err != nil {
			b.Fatal(err)
		}
		tpiNorm = cell(tab, 1, 3) // ocean, TPI/HW
	}
	b.ReportMetric(tpiNorm, "ocean-tpi/hw-time")
}

// BenchmarkTimetagSensitivity regenerates E8.
func BenchmarkTimetagSensitivity(b *testing.B) {
	var resets2 float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E8TimetagSensitivity()
		if err != nil {
			b.Fatal(err)
		}
		resets2 = cell(tab, 0, 3) // spec77, 2-bit resets
	}
	b.ReportMetric(resets2, "spec77-2bit-resets")
}

// BenchmarkCacheSizeSweep regenerates E9.
func BenchmarkCacheSizeSweep(b *testing.B) {
	var small, large float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E9CacheSizeSweep()
		if err != nil {
			b.Fatal(err)
		}
		small, large = cell(tab, 0, 2), cell(tab, 3, 2)
	}
	b.ReportMetric(small, "spec77-4KB-tpi-miss%")
	b.ReportMetric(large, "spec77-256KB-tpi-miss%")
}

// BenchmarkLineSizeSweep regenerates E10.
func BenchmarkLineSizeSweep(b *testing.B) {
	var hwUnnec16 float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E10LineSizeSweep()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tab.Rows {
			if r[0] == "arc2d" && r[1] == "16w" {
				hwUnnec16, _ = strconv.ParseFloat(r[5], 64)
			}
		}
	}
	b.ReportMetric(hwUnnec16, "arc2d-hw-unnec-16w/1k")
}

// BenchmarkTwoPhaseResetAblation regenerates E11.
func BenchmarkTwoPhaseResetAblation(b *testing.B) {
	var twoPhase, flash float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E11ResetAblation()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tab.Rows {
			if r[0] == "spec77" && r[1] == "two-phase" {
				twoPhase, _ = strconv.ParseFloat(r[3], 64)
			}
			if r[0] == "spec77" && r[1] == "flash" {
				flash, _ = strconv.ParseFloat(r[3], 64)
			}
		}
	}
	b.ReportMetric(twoPhase, "spec77-2phase-invals")
	b.ReportMetric(flash, "spec77-flash-invals")
}

// BenchmarkScalability regenerates E12.
func BenchmarkScalability(b *testing.B) {
	var lat32 float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E12Scalability()
		if err != nil {
			b.Fatal(err)
		}
		last := tab.Rows[len(tab.Rows)-1]
		lat32, _ = strconv.ParseFloat(last[2], 64)
	}
	b.ReportMetric(lat32, "tpi-lat-at-32p")
}

// BenchmarkCompilerAblations regenerates E13.
func BenchmarkCompilerAblations(b *testing.B) {
	var full, neither float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E13CompilerAblations()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tab.Rows {
			if r[0] == "spec77" && r[1] == "full" {
				full = cell(tab, 0, 2)
			}
			if r[0] == "spec77" && r[1] == "neither" {
				neither, _ = strconv.ParseFloat(strings.TrimSuffix(r[2], "%"), 64)
			}
		}
	}
	b.ReportMetric(full, "spec77-full-miss%")
	b.ReportMetric(neither, "spec77-ablated-miss%")
}

// BenchmarkCompile measures the compiler pipeline itself.
func BenchmarkCompile(b *testing.B) {
	k, err := bench.Get("spec77", bench.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(k.Source, core.DefaultCompileOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures simulated references per second
// under TPI on the ocean kernel.
func BenchmarkSimulatorThroughput(b *testing.B) {
	k, err := bench.Get("ocean", bench.Params{N: 32, Steps: 2})
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.DefaultCompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.Default(machine.SchemeTPI)
	var refs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.Run(c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		refs = st.Reads + st.Writes
	}
	b.ReportMetric(float64(refs), "refs/run")
}

// BenchmarkSimHotLoop measures the simulator's inner loop on each paper
// kernel at the unit-test workload size under TPI: compile once, then
// simulate repeatedly on a fresh memory system. ns/op tracks the
// end-to-end run; B/op must stay flat in the reference count (the
// steady-state inner loop performs no per-reference allocations).
func BenchmarkSimHotLoop(b *testing.B) {
	for _, name := range bench.Names {
		b.Run(name, func(b *testing.B) {
			k, err := bench.Get(name, bench.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			c, err := core.Compile(k.Source, core.DefaultCompileOptions())
			if err != nil {
				b.Fatal(err)
			}
			cfg := machine.Default(machine.SchemeTPI)
			var refs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := core.Run(c, cfg)
				if err != nil {
					b.Fatal(err)
				}
				refs = st.Reads + st.Writes
			}
			b.ReportMetric(float64(refs), "refs/run")
		})
	}
}

// BenchmarkStreamFastPath measures the affine reference-stream fast
// path: fastpath on/off across every scheme (all seven plus two-level
// TPI implement stream cursors) at 16 and 64 simulated processors, on
// two workload shapes — ocean (mixed: stencil sweeps plus
// critical-section reductions, so a fraction of references never
// streams) and trfd (stream-dominated: the n-cubed matmul inner loops
// put nearly every reference on the fast path). Both arms produce
// bit-identical statistics (guarded by the exper equivalence tests);
// only ns/op may change. CHANGES.md records the measured deltas.
func BenchmarkStreamFastPath(b *testing.B) {
	variants := []struct {
		name    string
		scheme  machine.Scheme
		l1Words int64
	}{
		{"BASE", machine.SchemeBase, 0},
		{"SC", machine.SchemeSC, 0},
		{"TPI", machine.SchemeTPI, 0},
		{"TPI2L", machine.SchemeTPI, 1024},
		{"HW", machine.SchemeHW, 0},
		{"VC", machine.SchemeVC, 0},
		{"TARDIS", machine.SchemeTardis, 0},
		{"TARDIS2", machine.SchemeTardis2, 0},
	}
	for _, kn := range []string{"ocean", "trfd"} {
		k, err := bench.Get(kn, bench.Params{N: 48, Steps: 2})
		if err != nil {
			b.Fatal(err)
		}
		c, err := core.Compile(k.Source, core.DefaultCompileOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range variants {
			for _, procs := range []int{16, 64} {
				for _, fast := range []bool{false, true} {
					mode := "scalar"
					if fast {
						mode = "stream"
					}
					b.Run(fmt.Sprintf("%s/%s/procs=%d/%s", kn, v.name, procs, mode), func(b *testing.B) {
						cfg := machine.Default(v.scheme)
						cfg.L1Words = v.l1Words
						cfg.Procs = procs
						cfg.FastPath = fast
						var refs int64
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							st, err := core.Run(c, cfg)
							if err != nil {
								b.Fatal(err)
							}
							refs = st.Reads + st.Writes
						}
						b.ReportMetric(float64(refs), "refs/run")
					})
				}
			}
		}
	}
}

// BenchmarkHostParallel measures the host-parallel epoch execution mode
// on 16- and 64-processor ocean runs at host worker counts 1/2/4/8,
// under TPI and the two buffered schemes (HW's barrier-deferred
// directory and VC's always-buffered lanes shard through per-lane logs
// merged at the barrier). hostpar=1 is the sequential path (the mode
// only engages above one worker); every variant produces bit-identical
// stats, so ns/op is the only thing that may change. Wall-clock speedup
// requires host cores: on a single-core host (GOMAXPROCS=1) the sharded
// variants measure pure overhead, not speedup.
func BenchmarkHostParallel(b *testing.B) {
	k, err := bench.Get("ocean", bench.Params{N: 32, Steps: 2})
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.DefaultCompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	schemes := []machine.Scheme{machine.SchemeTPI, machine.SchemeHW, machine.SchemeVC}
	for _, s := range schemes {
		for _, procs := range []int{16, 64} {
			for _, hp := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/procs=%d/hostpar=%d", s, procs, hp), func(b *testing.B) {
					cfg := machine.Default(s)
					cfg.Procs = procs
					cfg.HostParallel = hp
					var refs int64
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						st, err := core.Run(c, cfg)
						if err != nil {
							b.Fatal(err)
						}
						refs = st.Reads + st.Writes
					}
					b.ReportMetric(float64(refs), "refs/run")
				})
			}
		}
	}
}

// BenchmarkLargeP measures the large-machine regime the clustered mesh
// model targets: ocean on a mesh of 256 to 4096 simulated processors
// under the hardware directory, two-level TPI, and Tardis 2.0, with
// host parallelism fixed at 8 workers. The refs/run metric makes runs comparable across
// P (the kernel, and so the reference stream, is the same size at every
// P — only the machine grows); allocs/op is the lazy per-processor
// state working: idle processors past the kernel's parallelism must not
// cost cache or tracker allocations.
func BenchmarkLargeP(b *testing.B) {
	k, err := bench.Get("ocean", bench.Params{N: 48, Steps: 2})
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.DefaultCompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name    string
		scheme  machine.Scheme
		l1Words int64
	}{
		{"HW", machine.SchemeHW, 0},
		{"TPI2L", machine.SchemeTPI, 1024},
		{"TARDIS2", machine.SchemeTardis2, 0},
	}
	for _, v := range variants {
		for _, procs := range []int{256, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/procs=%d", v.name, procs), func(b *testing.B) {
				cfg := machine.Default(v.scheme)
				cfg.L1Words = v.l1Words
				cfg.Procs = procs
				cfg.Topology = "mesh"
				cfg.ClusterSize = 16
				cfg.HostParallel = 8
				var refs int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := core.Run(c, cfg)
					if err != nil {
						b.Fatal(err)
					}
					refs = st.Reads + st.Writes
				}
				b.ReportMetric(float64(refs), "refs/run")
			})
		}
	}
}

// BenchmarkObsOverhead measures the cost of the instrumentation layer on
// the ocean/TPI hot loop at each obs.Level. The "off" sub-benchmark is
// the same work as BenchmarkSimHotLoop/ocean and must stay within noise
// of it: with observation off the runner selects the plain readFast /
// writeFast closures and no obs code is on the reference path.
func BenchmarkObsOverhead(b *testing.B) {
	k, err := bench.Get("ocean", bench.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.DefaultCompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.Default(machine.SchemeTPI)
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(c, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("counters", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunWithOptions(c, cfg, core.RunOptions{Obs: obs.LevelCounters}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunWithOptions(c, cfg, core.RunOptions{Trace: io.Discard}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTelemetryOverhead measures the cost of the live-telemetry
// progress sampling on the ocean/TPI hot loop. "off" is the uninstru-
// mented baseline (identical work to BenchmarkSimHotLoop/ocean); "idle"
// attaches a progress callback that exports per-scheme counter deltas
// into a telemetry registry at every epoch barrier — the tpiserved
// configuration with no scraper or SSE subscriber attached. The
// per-reference hot path is untouched by sampling, so the two arms must
// stay within noise of each other; CHANGES.md records the measured
// numbers.
func BenchmarkTelemetryOverhead(b *testing.B) {
	k, err := bench.Get("ocean", bench.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.DefaultCompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.Default(machine.SchemeTPI)
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(c, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("idle", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		epochs := reg.Counter("bench_epochs_total", "", telemetry.Labels{"scheme": "TPI"})
		misses := reg.Counter("bench_read_misses_total", "", telemetry.Labels{"scheme": "TPI"})
		var prevEpoch, prevMiss int64
		progress := func(p sim.Progress) {
			epochs.Add(p.Epoch - prevEpoch)
			total := p.Stats.ReadMisses.Total()
			misses.Add(total - prevMiss)
			prevEpoch, prevMiss = p.Epoch, total
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prevEpoch, prevMiss = 0, 0
			if _, err := core.RunWithOptions(c, cfg, core.RunOptions{Progress: progress}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLimitedPointerDirectory regenerates E14 (extension).
func BenchmarkLimitedPointerDirectory(b *testing.B) {
	var evict1 float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E14LimitedPointers()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tab.Rows {
			if r[0] == "trfd" && r[1] == "DIR_NB(1)" {
				evict1, _ = strconv.ParseFloat(r[3], 64)
			}
		}
	}
	b.ReportMetric(evict1, "trfd-nb1-evictions")
}

// BenchmarkConsistencyModels regenerates E15 (extension).
func BenchmarkConsistencyModels(b *testing.B) {
	var tpiSlow, hwSlow float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E15ConsistencyModels()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tab.Rows {
			if r[0] == "ocean" && r[1] == "TPI" {
				tpiSlow, _ = strconv.ParseFloat(r[4], 64)
			}
			if r[0] == "ocean" && r[1] == "HW" {
				hwSlow, _ = strconv.ParseFloat(r[4], 64)
			}
		}
	}
	b.ReportMetric(tpiSlow, "ocean-tpi-sc-slowdown")
	b.ReportMetric(hwSlow, "ocean-hw-sc-slowdown")
}

// BenchmarkSchedulingPolicies regenerates E16 (extension).
func BenchmarkSchedulingPolicies(b *testing.B) {
	var blockMiss, dynMiss float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E16SchedulingPolicies()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tab.Rows {
			if r[0] == "ocean" && r[1] == "block" {
				blockMiss = cell(tab, 0, 2)
			}
			if r[0] == "ocean" && r[1] == "dynamic" {
				dynMiss, _ = strconv.ParseFloat(strings.TrimSuffix(r[2], "%"), 64)
			}
		}
	}
	b.ReportMetric(blockMiss, "ocean-block-miss%")
	b.ReportMetric(dynMiss, "ocean-dynamic-miss%")
}

// BenchmarkToolchain regenerates E21 (sequential -> auto-parallel ->
// simulate).
func BenchmarkToolchain(b *testing.B) {
	var loops float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E21Toolchain()
		if err != nil {
			b.Fatal(err)
		}
		loops = cell(tab, 0, 1)
	}
	b.ReportMetric(loops, "ocean-seq-doalls")
}

// BenchmarkOffTheShelf regenerates E19 (two-level implementation).
func BenchmarkOffTheShelf(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E19OffTheShelf()
		if err != nil {
			b.Fatal(err)
		}
		slowdown, _ = strconv.ParseFloat(tab.Rows[1][4], 64)
	}
	b.ReportMetric(slowdown, "ocean-2level-slowdown")
}

// BenchmarkTopologies regenerates E20 (multistage vs torus).
func BenchmarkTopologies(b *testing.B) {
	var torusLat float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E20Topologies()
		if err != nil {
			b.Fatal(err)
		}
		torusLat, _ = strconv.ParseFloat(tab.Rows[0][3], 64)
	}
	b.ReportMetric(torusLat, "ocean-tpi-torus-lat")
}

// BenchmarkHSCDFamily regenerates E17 (SC vs VC vs TPI).
func BenchmarkHSCDFamily(b *testing.B) {
	var vc, tpi float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E17HSCDFamily()
		if err != nil {
			b.Fatal(err)
		}
		vc, tpi = cell(tab, 1, 2), cell(tab, 1, 3)
	}
	b.ReportMetric(vc, "ocean-vc-miss%")
	b.ReportMetric(tpi, "ocean-tpi-miss%")
}

// BenchmarkWritePolicies regenerates E18.
func BenchmarkWritePolicies(b *testing.B) {
	var stall float64
	for i := 0; i < b.N; i++ {
		tab, err := suite().E18WritePolicies()
		if err != nil {
			b.Fatal(err)
		}
		stall, _ = strconv.ParseFloat(tab.Rows[1][3], 64)
	}
	b.ReportMetric(stall, "trfd-flush-stalls")
}
