package core_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/core/modetest"
	"repro/internal/machine"
)

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
		storeKnobRuns(t, &b, kern, core.CompileT(t, k.Source))
	}
	got := b.String()

	golden := filepath.Join("testdata", "storeknobs.golden")
	if *core.Update {
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
func storeKnobRuns(t *testing.T, b *strings.Builder, kern string, c *core.Compiled) {
	t.Helper()
	for _, v := range modetest.Variants {
		for _, knob := range storeKnobs {
			if knob.tpiOnly && v.Scheme != machine.SchemeTPI {
				continue
			}
			cfg := v.Config(8, 64)
			cfg.CacheWords = 256 // small enough that the kernels' arrays evict
			cfg.FastPath = false
			knob.mut(&cfg)
			res, err := core.RunWithOptions(c, cfg, core.RunOptions{Memory: true})
			if err != nil {
				t.Fatalf("%s/%s/%s: %v", kern, v.Name, knob.name, err)
			}
			js, err := json.Marshal(res.Stats.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(b, "%s/%s/%s mem=%s\n%s\n", kern, v.Name, knob.name, modetest.MemHash(res.Memory), js)
		}
	}
}
