package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/machine"
	"repro/internal/tardis"
)

// TestWidePresenceBitIdentical proves the two presence-set
// representations are observationally identical at P <= 64: every kernel
// x scheme variant is run twice, once on the inline-word path and once
// with directory.ForceWidePresence steering the HW directory onto the
// multi-word path, and the stats snapshots and final memory images must
// match byte for byte. Only SchemeHW owns a directory, but running all
// six variants keeps the sweep a regression net for the hook itself.
func TestWidePresenceBitIdentical(t *testing.T) {
	type point struct {
		idx     int
		kernel  string
		variant schemeVariant
	}
	var points []point
	for _, name := range bench.Names {
		for _, v := range allVariants {
			points = append(points, point{len(points), name, v})
		}
	}
	s := smallSuite()
	runAll := func() ([][]byte, [][]float64, error) {
		jsons := make([][]byte, len(points))
		mems := make([][]float64, len(points))
		_, err := forEach(points, func(pt point) ([][]string, error) {
			cfg := s.cfg(pt.variant.scheme)
			cfg.L1Words = pt.variant.l1Words
			cfg.Procs = 16
			c, err := s.compile(pt.kernel, core.CompileOptions{
				Interproc:      cfg.Interproc,
				FirstReadReuse: cfg.FirstReadReuse,
				AlignWords:     int64(cfg.LineWords),
			})
			if err != nil {
				return nil, err
			}
			run, err := core.RunWithOptions(c, cfg, core.RunOptions{Memory: true})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", pt.kernel, pt.variant.name, err)
			}
			st, mem := run.Stats, run.Memory
			j, err := json.Marshal(st.Snapshot())
			if err != nil {
				return nil, err
			}
			jsons[pt.idx], mems[pt.idx] = j, mem
			return nil, nil
		})
		return jsons, mems, err
	}

	narrowJSON, narrowMem, err := runAll()
	if err != nil {
		t.Fatal(err)
	}
	prev := directory.ForceWidePresence(true)
	wideJSON, wideMem, err := runAll()
	directory.ForceWidePresence(prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		label := fmt.Sprintf("%s/%s", pt.kernel, pt.variant.name)
		if !bytes.Equal(narrowJSON[pt.idx], wideJSON[pt.idx]) {
			t.Errorf("%s: snapshots diverge:\nnarrow %s\nwide   %s",
				label, narrowJSON[pt.idx], wideJSON[pt.idx])
		}
		if !reflect.DeepEqual(narrowMem[pt.idx], wideMem[pt.idx]) {
			t.Errorf("%s: final memory images diverge", label)
		}
	}
}

// TestWideTimestampsBitIdentical is the Tardis analog of the presence
// test above: the packed and wide home timestamp tables must be
// observationally identical. P = 96 puts the run past the P > 64 cliff
// where the HW presence sets also go multi-word, so the sweep exercises
// both two-tier representations at once on the Tardis variants.
func TestWideTimestampsBitIdentical(t *testing.T) {
	variants := []schemeVariant{
		{"TARDIS", machine.SchemeTardis, 0},
		{"TARDIS2", machine.SchemeTardis2, 0},
	}
	type point struct {
		idx     int
		kernel  string
		variant schemeVariant
	}
	var points []point
	for _, name := range bench.Names {
		for _, v := range variants {
			points = append(points, point{len(points), name, v})
		}
	}
	s := smallSuite()
	runAll := func() ([][]byte, [][]float64, error) {
		jsons := make([][]byte, len(points))
		mems := make([][]float64, len(points))
		_, err := forEach(points, func(pt point) ([][]string, error) {
			cfg := s.cfg(pt.variant.scheme)
			cfg.Procs = 96
			c, err := s.compile(pt.kernel, core.CompileOptions{
				Interproc:      cfg.Interproc,
				FirstReadReuse: cfg.FirstReadReuse,
				AlignWords:     int64(cfg.LineWords),
			})
			if err != nil {
				return nil, err
			}
			run, err := core.RunWithOptions(c, cfg, core.RunOptions{Memory: true})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", pt.kernel, pt.variant.name, err)
			}
			st, mem := run.Stats, run.Memory
			j, err := json.Marshal(st.Snapshot())
			if err != nil {
				return nil, err
			}
			jsons[pt.idx], mems[pt.idx] = j, mem
			return nil, nil
		})
		return jsons, mems, err
	}

	narrowJSON, narrowMem, err := runAll()
	if err != nil {
		t.Fatal(err)
	}
	tardis.ForceWideTimestamps = true
	wideJSON, wideMem, err := runAll()
	tardis.ForceWideTimestamps = false
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		label := fmt.Sprintf("%s/%s", pt.kernel, pt.variant.name)
		if !bytes.Equal(narrowJSON[pt.idx], wideJSON[pt.idx]) {
			t.Errorf("%s: snapshots diverge:\nnarrow %s\nwide   %s",
				label, narrowJSON[pt.idx], wideJSON[pt.idx])
		}
		if !reflect.DeepEqual(narrowMem[pt.idx], wideMem[pt.idx]) {
			t.Errorf("%s: final memory images diverge", label)
		}
	}
}

// TestFourThousandProcOcean is the scale acceptance criterion as a test:
// a 4096-processor ocean run on the clustered mesh completes under the
// hardware directory, two-level TPI, and Tardis 2.0, and its stats pass
// the structural run-result validator.
func TestFourThousandProcOcean(t *testing.T) {
	if testing.Short() {
		t.Skip("P=4096 runs skipped in -short mode")
	}
	s := NewSuite(bench.Params{N: 48, Steps: 2}, 4096)
	for _, v := range []schemeVariant{
		{"HW", machine.SchemeHW, 0},
		{"TPI2L", machine.SchemeTPI, 64},
		{"TARDIS2", machine.SchemeTardis2, 0},
	} {
		cfg := s.cfg(v.scheme)
		cfg.L1Words = v.l1Words
		cfg.Topology = "mesh"
		cfg.ClusterSize = 16
		cfg.HostParallel = 8
		st, err := s.run("ocean", cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		b, err := json.Marshal(core.NewRunResult("ocean", cfg, st, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateRunResult(b); err != nil {
			t.Errorf("%s: result fails validation: %v", v.name, err)
		}
	}
}

// TestLargePMeshEquivalence extends the host-parallel and fast-path
// oracles to a configuration point past both scale cliffs at once: 256
// simulated processors (multi-word presence sets) on the clustered mesh
// topology (per-cluster home directories). For every kernel under HW and
// two-level TPI, a -hostpar 4 run and a fast-path-off run must both be
// bit-identical to the sequential fast-path-on baseline.
func TestLargePMeshEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("P=256 sweep skipped in -short mode")
	}
	variants := []schemeVariant{
		{"HW", machine.SchemeHW, 0},
		{"TPI2L", machine.SchemeTPI, 64},
	}
	type point struct {
		kernel  string
		variant schemeVariant
	}
	var points []point
	for _, name := range bench.Names {
		for _, v := range variants {
			points = append(points, point{name, v})
		}
	}
	s := smallSuite()
	_, err := forEach(points, func(pt point) ([][]string, error) {
		label := fmt.Sprintf("%s/%s/p256/mesh", pt.kernel, pt.variant.name)
		cfg := s.cfg(pt.variant.scheme)
		cfg.L1Words = pt.variant.l1Words
		cfg.Procs = 256
		cfg.Topology = "mesh"
		cfg.ClusterSize = 8
		c, err := s.compile(pt.kernel, core.CompileOptions{
			Interproc:      cfg.Interproc,
			FirstReadReuse: cfg.FirstReadReuse,
			AlignWords:     int64(cfg.LineWords),
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		seqRun, err := core.RunWithOptions(c, cfg, core.RunOptions{Memory: true})
		if err != nil {
			return nil, fmt.Errorf("%s: sequential: %w", label, err)
		}
		seqSt, seqMem := seqRun.Stats, seqRun.Memory
		seqJSON, err := json.Marshal(seqSt.Snapshot())
		if err != nil {
			return nil, err
		}
		check := func(mode string, mutate func(*machine.Config)) error {
			mcfg := cfg
			mutate(&mcfg)
			run, err := core.RunWithOptions(c, mcfg, core.RunOptions{Memory: true})
			if err != nil {
				return fmt.Errorf("%s: %s: %w", label, mode, err)
			}
			st, mem := run.Stats, run.Memory
			j, err := json.Marshal(st.Snapshot())
			if err != nil {
				return err
			}
			if !bytes.Equal(seqJSON, j) {
				return fmt.Errorf("%s: %s snapshot diverges:\nseq %s\ngot %s", label, mode, seqJSON, j)
			}
			if !reflect.DeepEqual(seqMem, mem) {
				return fmt.Errorf("%s: %s final memory diverges", label, mode)
			}
			return nil
		}
		if err := check("hostpar", func(c *machine.Config) { c.HostParallel = 4 }); err != nil {
			return nil, err
		}
		if err := check("nofastpath", func(c *machine.Config) { c.FastPath = false }); err != nil {
			return nil, err
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
