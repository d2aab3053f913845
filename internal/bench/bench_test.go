package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

func TestAllKernelsCompile(t *testing.T) {
	for _, k := range Kernels(DefaultParams()) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			c, err := core.Compile(k.Source, core.DefaultCompileOptions())
			if err != nil {
				t.Fatalf("%s does not compile: %v", k.Name, err)
			}
			if c.Marks.NumTimeRead == 0 {
				t.Errorf("%s produced no Time-Reads; it cannot exercise the coherence scheme", k.Name)
			}
		})
	}
}

func TestAllKernelsAllSchemesMatchOracle(t *testing.T) {
	for _, k := range Kernels(DefaultParams()) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			c, err := core.Compile(k.Source, core.DefaultCompileOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range machine.AllSchemes {
				cfg := machine.Default(s)
				cfg.Procs = 8
				if _, err := core.VerifyAgainstOracle(c, cfg); err != nil {
					t.Fatalf("%s under %s: %v", k.Name, s, err)
				}
			}
		})
	}
}

func TestGet(t *testing.T) {
	if _, err := Get("trfd", DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("nonesuch", DefaultParams()); err == nil {
		t.Fatal("want error for unknown kernel")
	}
}

// TestGetMatchesKernels: Get generates one kernel from the table that
// Kernels generates all of, so at every size its source is the
// Kernels entry byte for byte, and Names follows the table's order.
func TestGetMatchesKernels(t *testing.T) {
	for _, p := range []Params{DefaultParams(), PaperParams(), {N: 7, Steps: 1}} {
		ks := Kernels(p)
		if len(ks) != len(Names) {
			t.Fatalf("%d kernels, %d names", len(ks), len(Names))
		}
		for i, want := range ks {
			if Names[i] != want.Name {
				t.Errorf("Names[%d] = %s, Kernels()[%d] is %s", i, Names[i], i, want.Name)
			}
			got, err := Get(want.Name, p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("Get(%s, %+v) differs from its Kernels entry", want.Name, p)
			}
		}
	}
}

func TestTRFDRedundantWrites(t *testing.T) {
	// The paper's TRFD claim: heavy redundant write traffic under plain
	// write-through, eliminated by the write-buffer-as-cache.
	k, err := Get("trfd", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := machine.Default(machine.SchemeTPI)
	plain.Procs = 8
	plain.WriteBufferCache = false
	stPlain, err := core.Run(c, plain)
	if err != nil {
		t.Fatal(err)
	}
	wbc := plain
	wbc.WriteBufferCache = true
	stWbc, err := core.Run(c, wbc)
	if err != nil {
		t.Fatal(err)
	}
	if stWbc.WritesCoalesced == 0 {
		t.Fatal("TRFD must coalesce redundant writes")
	}
	if stWbc.WriteTrafficWords >= stPlain.WriteTrafficWords {
		t.Fatalf("wb-cache write traffic %d must undercut plain %d",
			stWbc.WriteTrafficWords, stPlain.WriteTrafficWords)
	}
	// The accumulation loop writes each Z word ~n times per epoch: the
	// reduction should be substantial, not marginal.
	if float64(stWbc.WriteTrafficWords) > 0.5*float64(stPlain.WriteTrafficWords) {
		t.Errorf("expected >2x write-traffic reduction, got %d -> %d",
			stPlain.WriteTrafficWords, stWbc.WriteTrafficWords)
	}
}

func TestQCD2RemoteDirtyLatency(t *testing.T) {
	// The paper's miss-latency table: HW's average miss latency rises on
	// QCD2-like codes (remote dirty lines) while TPI's stays flat.
	k, err := Get("qcd2", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfgT := machine.Default(machine.SchemeTPI)
	cfgT.Procs = 8
	stT, err := core.Run(c, cfgT)
	if err != nil {
		t.Fatal(err)
	}
	cfgH := machine.Default(machine.SchemeHW)
	cfgH.Procs = 8
	stH, err := core.Run(c, cfgH)
	if err != nil {
		t.Fatal(err)
	}
	if !(stH.AvgMissLatency() > stT.AvgMissLatency()) {
		t.Errorf("HW avg miss latency (%.1f) should exceed TPI's (%.1f) on qcd2",
			stH.AvgMissLatency(), stT.AvgMissLatency())
	}
}

func TestSequentialKernelsSoak(t *testing.T) {
	// Paper-size front-to-back toolchain soak; the quick variant runs in
	// the E21 experiment tests.
	if testing.Short() {
		t.Skip("paper-size soak")
	}
	for _, k := range SequentialKernels(PaperParams()) {
		c, err := core.Compile(k.Source, core.DefaultCompileOptions())
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		cfg := machine.Default(machine.SchemeTPI)
		if _, err := core.VerifyAgainstOracle(c, cfg); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
	}
}

func TestPaperSizeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size soak")
	}
	for _, name := range []string{"ocean", "trfd"} {
		k, err := Get(name, PaperParams())
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Compile(k.Source, core.DefaultCompileOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range machine.AllSchemes {
			cfg := machine.Default(s)
			if _, err := core.VerifyAgainstOracle(c, cfg); err != nil {
				t.Fatalf("%s under %s: %v", name, s, err)
			}
		}
	}
}
