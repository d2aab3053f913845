package exper

import (
	"encoding/json"
	"os"
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
	for _, v := range variantsNamed("HW", "TPI2L", "TARDIS2") {
		cfg := v.Config(s.Procs, 64)
		cfg.Topology = "mesh"
		cfg.ClusterSize = 16
		cfg.HostParallel = 8
		st, err := s.run("ocean", cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		b, err := json.Marshal(core.NewRunResult("ocean", cfg, st, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateRunResult(b); err != nil {
			t.Errorf("%s: result fails validation: %v", v.Name, err)
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
