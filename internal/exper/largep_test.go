package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
	"repro/internal/sim"
)

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

// TestSparseHomeStorage is the storage bound of the home tables: a
// program with a 16M-word data segment that touches 64 words, run at
// P=4096 on the mesh with one-word lines. The HW directory and the
// Tardis home must complete, match the sequential oracle, and hold no
// more home-table chunks than the touched lines span: their storage
// follows what the run touched, not memory × P.
func TestSparseHomeStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("P=4096 runs skipped in -short mode")
	}
	src, err := os.ReadFile("testdata/sparse16m.pfl")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []machine.Scheme{machine.SchemeHW, machine.SchemeTardis2} {
		cfg := machine.Default(scheme)
		cfg.Procs = 4096
		cfg.LineWords = 1
		cfg.Topology = "mesh"
		c, err := core.CompileForConfig(string(src), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.VerifyAgainstOracle(c, cfg); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		held, spanned, lines, err := homeFootprint(c, cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if held == 0 || held > spanned {
			t.Errorf("%v: home table holds %d chunks; the %d touched lines span %d", scheme, held, lines, spanned)
		}
		t.Logf("%v: home table holds %d chunks for %d touched lines", scheme, held, lines)
	}
}

// homeFootprint runs c on a fresh system and reports, before the system
// is released, the chunks its home table holds, the distinct table
// chunks the lines the run wrote span, and how many lines those are.
// (The programs it is used with read only words they wrote.)
func homeFootprint(c *core.Compiled, cfg machine.Config) (held, spanned, lines int, err error) {
	sys, err := core.NewSystem(cfg, c.Prog)
	if err != nil {
		return 0, 0, 0, err
	}
	defer sys.ReleaseCaches()
	lp, err := c.Lowered()
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := sim.NewLowered(lp, sys, cfg).Run(); err != nil {
		return 0, 0, 0, err
	}
	mem := sys.Mem()
	lw := int64(cfg.LineWords)
	lastLine, lastChunk := int64(-1), int64(-1)
	for a := int64(0); a < mem.Size(); a++ {
		if mem.LastWriter(prog.Word(a)) < 0 || a/lw == lastLine {
			continue
		}
		lastLine = a / lw
		lines++
		if lastLine/64 != lastChunk {
			lastChunk = lastLine / 64
			spanned++
		}
	}
	home := sys.(interface{ HomeTable() *memsys.LineTable }).HomeTable()
	return home.Chunks(), spanned, lines, nil
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
