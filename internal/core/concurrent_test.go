package core

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/machine"
)

// TestConcurrentRun is the safety contract the svc compile cache depends
// on: one Compiled shared by many goroutines (each running its own
// simulation, across every scheme) must produce bit-identical statistics
// and final memory — Compiled is immutable after Compile (VC's variable
// table is built once, by whichever run asks first), and all mutable run
// state is per-Run. Every other goroutine runs with four host workers, so
// the shared lane, log, cache, tracker and memory-image pools serve
// sequential and host-parallel runs at once. Run under -race in CI.
func TestConcurrentRun(t *testing.T) {
	c := compileT(t, stencilSrc)
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
					res, err := RunWithOptions(c, cfg, RunOptions{Memory: true})
					if err != nil {
						errs[g] = err
						return
					}
					snaps[g], errs[g] = json.Marshal(res.Stats.Snapshot())
					snaps[g] = append(snaps[g], memHash(res.Memory)...)
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				if string(snaps[g]) != string(snaps[0]) {
					t.Fatalf("goroutine %d snapshot diverges:\n%s\nvs\n%s", g, snaps[g], snaps[0])
				}
			}
		})
	}
}
