package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestSteadyStateRunAllocs: once warm, the simulation walk allocates
// nothing that grows with the program or the machine. Call frames,
// stream scratch, cycle counters, host-parallel workers and their
// per-processor event shards come from the run storage free list, so a
// run allocates what building and releasing its system does, plus the
// Runner, the returned ProcBusy and one goroutine per host worker; an
// observed host-parallel run allocates what the same run on one host
// goroutine does, plus the workers. A slack of two, and one more per
// worker, covers the runtime's occasional channel-wait bookkeeping.
func TestSteadyStateRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	type cell struct {
		name string
		c    *Compiled
		cfg  machine.Config
		opts RunOptions
	}
	var cells []cell
	p := bench.Params{N: 16, Steps: 2}
	for _, k := range []string{"ocean", "trfd"} {
		c := kernelT(t, k, p)
		for _, v := range schemeVariants() {
			cells = append(cells, cell{k + "/" + v.name, c, v.cfg, RunOptions{}})
		}
	}
	mesh := machine.Default(machine.SchemeHW)
	mesh.Procs, mesh.Topology, mesh.ClusterSize, mesh.HostParallel = 1024, "mesh", 16, 2
	ocean := kernelT(t, "ocean", p)
	cells = append(cells, cell{"ocean/HW/mesh1024/hostpar2", ocean, mesh, RunOptions{}},
		cell{"ocean/HW/mesh1024/hostpar2/obs", ocean, mesh, RunOptions{Obs: obs.LevelCounters}})

	for _, cl := range cells {
		run := testing.AllocsPerRun(5, func() {
			if _, err := RunWithOptions(cl.c, cl.cfg, cl.opts); err != nil {
				t.Fatal(err)
			}
		})
		// The floor is building and releasing the system; on an
		// observed run, the whole run on one host goroutine, which also
		// builds the recorder and its report.
		floor := testing.AllocsPerRun(5, func() {
			if cl.opts.Obs != obs.LevelOff {
				seq := cl.cfg
				seq.HostParallel = 0
				if _, err := RunWithOptions(cl.c, seq, cl.opts); err != nil {
					t.Fatal(err)
				}
				return
			}
			sys, err := NewSystem(cl.cfg, cl.c.Prog)
			if err != nil {
				t.Fatal(err)
			}
			sys.ReleaseCaches()
		})
		workers := 0
		if cl.cfg.HostParallel > 1 {
			workers = cl.cfg.HostParallel
		}
		t.Logf("%s: %v allocations per run, floor %v", cl.name, run, floor)
		if limit := floor + 4 + 2*float64(workers); run > limit {
			t.Errorf("%s: a warm run allocates %v objects, want at most %v (floor %v, %d host workers)",
				cl.name, run, limit, floor, workers)
		}
	}
}

// deepCallSrc calls two procedure levels down, with loops live in
// every frame, and ends the innermost DOALL's body with stmt. Q[i] is
// n/2 - i, so a statement that divides by it faults at i = n/2.
func deepCallSrc(stmt string) string {
	return fmt.Sprintf(`
program deepfault
param n = 64
array A[n]
array D[n]
proc main() {
  doall i = 0 to n-1 {
    A[i] = i + 1
    D[i] = n / 2 - i
  }
  for t = 0 to 1 {
    call outer(A, D)
  }
}
proc outer(X[], Y[]) {
  for k = 0 to 2 {
    for m = 0 to 1 {
      call inner(X, Y)
    }
  }
}
proc inner(P[], Q[]) {
  doall i = 0 to n-1 {
    for j = 0 to 3 {
      P[i] = P[i] + j * 0.5
    }
    %s
  }
}
`, stmt)
}

// waitGoroutines fails unless the goroutine count falls back to at most
// base: every host-parallel worker a run starts must be gone once it
// returns. A worker that has just acknowledged its stop may take a
// moment to exit, so the count is polled.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive %s, want at most %d", runtime.NumGoroutine(), after, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFaultInCalleeLeavesNoState: a run that faults two calls deep, with
// live loops, slots, stream scratch and bindings in every frame, hands
// its storage back mid-walk. Later runs of different programs, one with
// fewer frames and slots and one of the same shape, must match their own
// first runs byte for byte, sequentially and with four host workers, and
// no worker goroutine may outlive any run.
func TestFaultInCalleeLeavesNoState(t *testing.T) {
	goods := []*Compiled{compileT(t, stencilSrc), compileT(t, deepCallSrc("P[i] = P[i] / (Q[i] + 0.5)"))}
	faults := []struct {
		c    *Compiled
		want string
	}{
		{compileT(t, deepCallSrc("P[i] = P[i] / Q[i]")), "division by zero"},
		{compileT(t, deepCallSrc("P[i] = P[i + 100 / (Q[i] + 0.5)]")), "out of range"},
	}
	base := machine.Default(machine.SchemeBase)
	base.Procs = 8
	variants := append(laneVariants(), struct {
		name string
		cfg  machine.Config
	}{"BASE", base})
	for _, v := range variants {
		for _, hp := range []int{1, 4} {
			cfg := v.cfg
			cfg.HostParallel = hp
			name := fmt.Sprintf("%s/hostpar%d", v.name, hp)
			g0 := runtime.NumGoroutine()
			key := func(c *Compiled) string {
				res, err := RunWithOptions(c, cfg, RunOptions{Memory: true})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				waitGoroutines(t, g0, name+" good run")
				return snapshotKey(t, res.Stats.Snapshot()) + " " + memHash(res.Memory)
			}
			var want []string
			for _, c := range goods {
				want = append(want, key(c))
			}
			for _, f := range faults {
				for i, c := range goods {
					_, err := Run(f.c, cfg)
					if err == nil || !strings.Contains(err.Error(), f.want) {
						t.Fatalf("%s: faulting run returned %v, want an error containing %q", name, err, f.want)
					}
					waitGoroutines(t, g0, name+" faulting run")
					if got := key(c); got != want[i] {
						t.Fatalf("%s: run state leaked across a fault in a callee:\nfirst %s\nnow   %s", name, want[i], got)
					}
				}
			}
		}
	}
}
