package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
)

// storeKnobVariants are the eight scheme variants NewSystem builds.
var storeKnobVariants = []struct {
	name string
	cfg  func() machine.Config
}{
	{"BASE", func() machine.Config { return machine.Default(machine.SchemeBase) }},
	{"SC", func() machine.Config { return machine.Default(machine.SchemeSC) }},
	{"TPI", func() machine.Config { return machine.Default(machine.SchemeTPI) }},
	{"TPI2L", func() machine.Config {
		c := machine.Default(machine.SchemeTPI)
		c.L1Words = 64
		return c
	}},
	{"HW", func() machine.Config { return machine.Default(machine.SchemeHW) }},
	{"VC", func() machine.Config { return machine.Default(machine.SchemeVC) }},
	{"TARDIS", func() machine.Config { return machine.Default(machine.SchemeTardis) }},
	{"TARDIS2", func() machine.Config { return machine.Default(machine.SchemeTardis2) }},
}

// storeKnobs are the store-path knobs every variant runs under; the
// tpiOnly ones shape TPI's write path alone (TPI and TPI2L).
var storeKnobs = []struct {
	name    string
	tpiOnly bool
	mut     func(*machine.Config)
}{
	{"default", false, func(*machine.Config) {}},
	{"seqc", false, func(c *machine.Config) { c.SeqConsistency = true }},
	{"nowbcache", false, func(c *machine.Config) { c.WriteBufferCache = false }},
	{"writeback", true, func(c *machine.Config) { c.TPIWriteBack = true }},
	{"linett", true, func(c *machine.Config) { c.LineTimetags = true }},
	{"prefetch", true, func(c *machine.Config) { c.Prefetch = true }},
}

// memHash is a SHA-256 over the final memory image's float64 bits.
func memHash(mem []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range mem {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSchemeStoreKnobGolden pins, for every scheme variant under every
// store-path knob, the stats snapshot JSON and a hash of the final
// memory image of two small kernels on a small cache, in
// sequential-scalar mode: ocean, which ends in a critical reduction, and
// trfd, whose in-place accumulation makes write hits and coalescing
// stores. The mode-equivalence suites compare execution modes against
// each other, so they cannot see a change that moves a counter the same
// way in every mode; this golden can. Regenerate deliberately with
// `go test -run StoreKnobGolden ./internal/core/ -update`.
func TestSchemeStoreKnobGolden(t *testing.T) {
	var b strings.Builder
	for _, kern := range []string{"ocean", "trfd"} {
		k, err := bench.Get(kern, bench.Params{N: 16, Steps: 2})
		if err != nil {
			t.Fatal(err)
		}
		storeKnobRuns(t, &b, kern, compileT(t, k.Source))
	}
	got := b.String()

	golden := filepath.Join("testdata", "storeknobs.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("scheme x store-knob results changed at golden line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("scheme x store-knob golden has %d lines, want %d", len(gl), len(wl))
	}
}

// storeKnobRuns appends kernel kern's golden lines to b: one header
// (case name and memory hash) and one snapshot line per run.
func storeKnobRuns(t *testing.T, b *strings.Builder, kern string, c *Compiled) {
	t.Helper()
	for _, v := range storeKnobVariants {
		for _, knob := range storeKnobs {
			if knob.tpiOnly && !strings.HasPrefix(v.name, "TPI") {
				continue
			}
			cfg := v.cfg()
			cfg.Procs = 8
			cfg.CacheWords = 256 // small enough that the kernels' arrays evict
			cfg.FastPath = false
			knob.mut(&cfg)
			res, err := RunWithOptions(c, cfg, RunOptions{Memory: true})
			if err != nil {
				t.Fatalf("%s/%s/%s: %v", kern, v.name, knob.name, err)
			}
			js, err := json.Marshal(res.Stats.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(b, "%s/%s/%s mem=%s\n%s\n", kern, v.name, knob.name, memHash(res.Memory), js)
		}
	}
}
