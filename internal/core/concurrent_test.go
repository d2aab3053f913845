package core_test

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/core/modetest"
	"repro/internal/machine"
)

// TestConcurrentRun is the safety contract the svc compile cache depends
// on: one Compiled shared by many goroutines (each running its own
// simulation, across every scheme) must produce bit-identical statistics
// and final memory — Compiled is immutable after Compile, and all
// mutable run state is per-Run. Every other goroutine runs with four host
// workers, so the shared lane, log, cache, tracker, memory-image and run
// storage pools serve sequential and host-parallel runs at once. Two
// programs of different call depth and frame size alternate, so pooled
// call frames pass between them. Run under -race in CI.
func TestConcurrentRun(t *testing.T) {
	progs := []*core.Compiled{
		core.CompileT(t, core.StencilSrc),
		core.CompileT(t, deepCallSrc("P[i] = P[i] / (Q[i] + 0.5)")), // never zero: a good run
	}
	const goroutines = 8
	for _, s := range machine.AllSchemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel() // schemes also overlap, sharing the same Compiled
			cfg := machine.Default(s)
			cfg.Procs = 8

			snaps := make([][]byte, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					cfg := cfg
					cfg.HostParallel = 4 * (g % 2)
					res, err := core.RunWithOptions(progs[g/2%2], cfg, core.RunOptions{Memory: true})
					if err != nil {
						errs[g] = err
						return
					}
					snaps[g], errs[g] = json.Marshal(res.Stats.Snapshot())
					snaps[g] = append(snaps[g], modetest.MemHash(res.Memory)...)
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				// Goroutines 0 and 2 run the first run of each program.
				if first := g / 2 % 2 * 2; string(snaps[g]) != string(snaps[first]) {
					t.Fatalf("goroutine %d snapshot diverges:\n%s\nvs\n%s", g, snaps[g], snaps[first])
				}
			}
		})
	}
}
