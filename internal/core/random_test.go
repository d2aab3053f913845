package core_test

// Randomized whole-pipeline property test: generate random — but
// DOALL-independent by construction — PFL programs and demand that every
// scheme variant, in every execution mode, produces results
// bit-identical to the sequential oracle under a variety of machine
// configurations. This exercises the parser, checker, epoch graphs,
// section analysis, marking, every memory system, and the simulator's
// scalar, stream and host-parallel paths against each other.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/core/modetest"
	"repro/internal/machine"
)

// randomL1Words sizes two-level TPI's L1 for the random programs: 12
// four-word lines, a multiple of every associativity they run at.
const randomL1Words = 48

func TestRandomProgramsAllSchemesMatchOracle(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := modetest.Program(seed)
			// Stress unaligned layouts too: with AlignWords 1 arrays share
			// cache lines with scalars and each other, exercising the
			// neighbour-fill rule and false-sharing paths hard.
			opts := core.DefaultCompileOptions()
			opts.AlignWords = []int64{1, 4}[seed%2]
			c, err := core.Compile(src, opts)
			if err != nil {
				t.Fatalf("generated program does not compile: %v\n%s", err, src)
			}
			// Two cache geometries per seed: a small one with 64 sets
			// (one chunk of cache storage), and one of 192 sets — three
			// chunks, a set count that is not a power of two, and at
			// associativity 3 frame slots that are not either. One of
			// them, alternating by seed, runs through the harness in
			// every execution mode; the other in the default mode alone,
			// which bounds the suite's run time.
			geometries := []struct {
				words int64
				assoc int
			}{
				{256 << (seed % 3), []int{1, 2, 4}[seed%3]}, // small caches force evictions
				{[]int64{1536, 2304}[seed%2], []int{2, 3}[seed%2]},
			}
			for _, v := range modetest.Variants {
				for i, g := range geometries {
					cfg := v.Config(4+int(seed%3)*2, randomL1Words)
					cfg.CacheWords = g.words
					cfg.Assoc = g.assoc
					if seed%4 == 3 {
						cfg.Topology = "torus"
					}
					cfg.MigrateSerial = seed%2 == 1
					cfg.CyclicSched = seed%3 == 1
					if cfg.Scheme == machine.SchemeTPI {
						cfg.TimetagBits = []int{2, 4, 8}[seed%3] // force resets sometimes
						cfg.LineTimetags = seed%5 == 0
						cfg.TPIWriteBack = seed%7 == 0
					}
					if int64(i) == seed%2 {
						_, err = modetest.Check(c, cfg)
					} else {
						_, err = core.VerifyAgainstOracle(c, cfg)
					}
					if err != nil {
						t.Fatalf("seed %d %s cache %d/%d: %v\nprogram:\n%s", seed, v.Name, g.words, g.assoc, err, src)
					}
				}
			}
		})
	}
}

func TestRandomProgramsAblatedCompilerStillSound(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(100); seed < int64(100+seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := modetest.Program(seed)
			c, err := core.Compile(src, core.CompileOptions{Interproc: false, FirstReadReuse: false, AlignWords: 4})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, v := range modetest.Variants {
				cfg := v.Config(8, randomL1Words)
				cfg.Interproc = false
				cfg.FirstReadReuse = false
				if _, err := modetest.Check(c, cfg); err != nil {
					t.Fatalf("seed %d %s: %v\nprogram:\n%s", seed, v.Name, err, src)
				}
			}
		})
	}
}
