package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/core/modetest"
	"repro/internal/machine"
)

// equivRow is one suite's row of the cross-mode table: the kernels,
// scheme variants, schedules and processor counts whose every
// combination it runs through the harness, on one network. No two rows
// share a cell. modetest.Check runs every cell in all eight execution
// modes, so the static and cyclic halves of the kernel grid go to the
// two suites that once compared the stream path and host-parallel
// epochs each against the sequential run, and the trace rows split by
// processor count.
type equivRow struct {
	kernels  []string
	variants []modetest.Variant
	cyclic   []bool // cyclic DOALL scheduling, else static
	procs    []int
	mesh     bool // the clustered mesh, 8 processors a cluster
	trace    bool // modetest.CheckTrace in place of modetest.Check
}

// variantsNamed is the harness's variants of the given names.
func variantsNamed(names ...string) []modetest.Variant {
	var vs []modetest.Variant
	for _, v := range modetest.Variants {
		if slices.Contains(names, v.Name) {
			vs = append(vs, v)
		}
	}
	return vs
}

// checkEquivalence runs row, one parallel subtest per cell, named
// kernel/variant/cyclic=…/p….
func checkEquivalence(t *testing.T, row equivRow) {
	s := smallSuite()
	for _, kernel := range row.kernels {
		t.Run(kernel, func(t *testing.T) {
			for _, v := range row.variants {
				t.Run(v.Name, func(t *testing.T) {
					for _, cyclic := range row.cyclic {
						t.Run(fmt.Sprintf("cyclic=%t", cyclic), func(t *testing.T) {
							for _, procs := range row.procs {
								t.Run(fmt.Sprintf("p%d", procs), func(t *testing.T) {
									t.Parallel()
									cfg := v.Config(procs, 64)
									cfg.CyclicSched = cyclic
									if row.mesh {
										cfg.Topology, cfg.ClusterSize = "mesh", 8
									}
									checkCell(t, s, kernel, cfg, row.trace)
								})
							}
						})
					}
				})
			}
		})
	}
}

// checkCell runs one kernel under cfg through the harness.
func checkCell(t *testing.T, s *Suite, kernel string, cfg machine.Config, trace bool) {
	c, err := s.compile(kernel, core.CompileOptions{
		Interproc:      cfg.Interproc,
		FirstReadReuse: cfg.FirstReadReuse,
		AlignWords:     int64(cfg.LineWords),
	})
	if err != nil {
		t.Fatal(err)
	}
	if trace {
		err = modetest.CheckTrace(c, cfg)
	} else {
		_, err = modetest.Check(c, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestFastPathEquivalence: every kernel under every scheme variant, at
// 16 and 64 processors with static scheduling, gives a byte-identical
// stats snapshot, final memory and obs report in every execution mode.
func TestFastPathEquivalence(t *testing.T) {
	checkEquivalence(t, equivRow{kernels: bench.Names, variants: modetest.Variants,
		cyclic: []bool{false}, procs: []int{16, 64}})
}

// TestHostParallelEquivalence is TestFastPathEquivalence under cyclic
// scheduling.
func TestHostParallelEquivalence(t *testing.T) {
	checkEquivalence(t, equivRow{kernels: bench.Names, variants: modetest.Variants,
		cyclic: []bool{true}, procs: []int{16, 64}})
}

// TestFastPathObservedEquivalence: the stream driver emits
// per-reference observer events in exact scalar order, so the binary
// trace is byte-identical in the sequential modes; every mode's traced
// run matches the sequential run at obs counters in stats snapshot,
// final memory and report, and its trace replays to its live report;
// here at 8 processors, with static scheduling.
func TestFastPathObservedEquivalence(t *testing.T) {
	checkEquivalence(t, equivRow{kernels: []string{"ocean", "trfd"}, variants: modetest.Variants,
		cyclic: []bool{false}, procs: []int{8}, trace: true})
}

// TestHostParallelObservedEquivalence is TestFastPathObservedEquivalence
// at 16 processors, with static and cyclic scheduling. Under cyclic
// scheduling a host-parallel trace is reordered processor-major, yet
// must still replay to the live report: the shard merge preserves the
// trace contract.
func TestHostParallelObservedEquivalence(t *testing.T) {
	checkEquivalence(t, equivRow{kernels: []string{"ocean", "trfd"}, variants: modetest.Variants,
		cyclic: []bool{false, true}, procs: []int{16}, trace: true})
}

// TestLargePMeshEquivalence runs the harness past both scale cliffs at
// once: 256 simulated processors (multi-word presence sets) on the
// clustered mesh (per-cluster home directories), for every kernel under
// HW and two-level TPI.
func TestLargePMeshEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("P=256 sweep skipped in -short mode")
	}
	checkEquivalence(t, equivRow{kernels: bench.Names, variants: variantsNamed("HW", "TPI2L"),
		cyclic: []bool{false}, procs: []int{256}, mesh: true})
}

// TestFastPathExperimentsJSON: a whole experiment table rendered by the
// harness must be byte-identical with the fast path on and off (the
// experiments-level form of the equivalence contract, mirrored in CI
// over the full suite).
func TestFastPathExperimentsJSON(t *testing.T) {
	render := func(noFast bool) []byte {
		t.Helper()
		s := smallSuite()
		s.NoFastPath = noFast
		tab, err := s.E3MissRates()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(tab)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	on := render(false)
	off := render(true)
	if !bytes.Equal(on, off) {
		t.Errorf("E3 JSON diverges:\nfast   %s\nscalar %s", on, off)
	}
}

// TestHostParallelTraceDeterminism pins the binary-trace merge contract:
// under static scheduling the host-parallel byte stream equals the
// sequential one (static iteration order is already processor-major);
// under cyclic scheduling the stream is reordered processor-major but
// must be identical from run to run at any worker count.
func TestHostParallelTraceDeterminism(t *testing.T) {
	s := smallSuite()
	cfg := s.cfg(machine.SchemeTPI)
	cfg.Procs = 16
	c, err := s.compile("ocean", core.CompileOptions{
		Interproc:      cfg.Interproc,
		FirstReadReuse: cfg.FirstReadReuse,
		AlignWords:     int64(cfg.LineWords),
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := func(cfg machine.Config) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := core.RunWithOptions(c, cfg, core.RunOptions{Trace: &buf}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	seq := trace(cfg)
	cfg.HostParallel = 4
	if par := trace(cfg); !bytes.Equal(seq, par) {
		t.Errorf("static scheduling: host-parallel trace differs from sequential (%d vs %d bytes)", len(seq), len(par))
	}

	cfg.CyclicSched = true
	first := trace(cfg)
	cfg.HostParallel = 8
	if again := trace(cfg); !bytes.Equal(first, again) {
		t.Errorf("cyclic scheduling: trace not deterministic across worker counts (%d vs %d bytes)", len(first), len(again))
	}
}
