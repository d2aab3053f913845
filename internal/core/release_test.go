package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/modetest"
	"repro/internal/machine"
	"repro/internal/sim"
)

// faultySrc caches plenty of state in its first epoch, then faults
// mid-run: IDX holds values up to 3*(n-1), so the gather's runtime
// subscript walks out of X's bounds partway through the second doall.
const faultySrc = `
program faulty
param n = 24
array IDX[n]
array X[n]
proc main() {
  doall i = 0 to n-1 {
    IDX[i] = i * 3
    X[i] = i
  }
  doall i = 0 to n-1 {
    X[i] = X[IDX[i]]
  }
}
`

// TestMidRunFaultReleasesPooledState forces a runtime fault in the middle
// of a simulation and asserts that (a) the fault surfaces as an error,
// not a panic, and (b) pooled cache structures handed back by the failed
// run come back fresh: a subsequent good run over the same cache
// geometry is bit-identical to the same run before the fault ever
// happened. This covers the run body's release-on-error path under
// every combination of run options.
func TestMidRunFaultReleasesPooledState(t *testing.T) {
	good := core.CompileT(t, core.StencilSrc)
	bad := core.CompileT(t, faultySrc)

	for _, s := range machine.AllSchemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := machine.Default(s)
			cfg.Procs = 8

			before, err := core.Run(good, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := before.Snapshot()

			if _, err := core.Run(bad, cfg); err == nil {
				t.Fatal("faulty program ran to completion")
			} else if !strings.Contains(err.Error(), "subscript") && !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("unexpected fault: %v", err)
			}
			for _, opts := range core.OptionCombos() {
				if _, err := core.RunWithOptions(bad, cfg, opts); err == nil {
					t.Fatalf("%s: faulty program ran to completion", core.ComboName(opts))
				}
			}

			after, err := core.Run(good, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if core.SnapshotKey(t, after.Snapshot()) != core.SnapshotKey(t, want) {
				t.Fatalf("pooled state leaked across a failed run:\nbefore %s\nafter  %s",
					core.SnapshotKey(t, want), core.SnapshotKey(t, after.Snapshot()))
			}
		})
	}
}

// TestLanePoolFreshness: every scheme returns its per-processor lanes
// (and HW and Tardis their action logs) to pools shared across runs. A
// run must see fresh pool state regardless of what earlier runs — other
// schemes, host-parallel workers, a mid-run fault — handed back:
// back-to-back runs through the pooled path, sequential and with four
// host workers, must be bit-identical.
func TestLanePoolFreshness(t *testing.T) {
	good := core.CompileT(t, core.StencilSrc)
	bad := core.CompileT(t, faultySrc)
	for _, v := range modetest.Variants {
		seq := v.Config(8, 1024)
		t.Run(v.Name, func(t *testing.T) {
			par := seq
			par.HostParallel = 4
			var want []string
			for _, cfg := range []machine.Config{seq, par} {
				st, err := core.Run(good, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, core.SnapshotKey(t, st.Snapshot()))
			}

			// Churn the pools: host-parallel runs of every lane variant
			// (their workers draw lanes and merge logs), stream fast-path
			// runs, and a faulting run that releases mid-simulation.
			for _, churn := range modetest.Variants {
				ccfg := churn.Config(8, 1024)
				ccfg.HostParallel = 4
				if _, err := core.Run(good, ccfg); err != nil {
					t.Fatal(err)
				}
				if _, err := core.Run(bad, ccfg); err == nil {
					t.Fatal("faulty program ran to completion")
				}
			}

			for i, cfg := range []machine.Config{seq, par} {
				st, err := core.Run(good, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := core.SnapshotKey(t, st.Snapshot()); got != want[i] {
					t.Fatalf("pooled lane state leaked across runs (HostParallel %d):\nbefore %s\nafter  %s",
						cfg.HostParallel, want[i], got)
				}
			}
		})
	}
}

// TestLanePoolReuse: a second host-parallel run of every scheme builds
// no new lanes. One cycle builds a system, runs a parallel epoch that
// draws every processor's lane and releases the system; against a cycle
// that never enters the epoch it may cost at most the one allocation of
// handing the lane table back to its free list, where rebuilding the lanes
// would cost at least one per processor.
func TestLanePoolReuse(t *testing.T) {
	c := core.CompileT(t, core.StencilSrc)
	for _, v := range modetest.Variants {
		cfg := v.Config(16, 1024)
		cfg.HostParallel = 4
		cycle := func(epoch bool) func() {
			return func() {
				sys, err := core.NewSystem(cfg, c.Prog)
				if err != nil {
					t.Fatal(err)
				}
				if epoch {
					sys.BeginParallelEpoch(1)
					for p := 0; p < cfg.Procs; p++ {
						sys.LaneStats(p)
					}
					sys.EndParallelEpoch()
				}
				sys.ReleaseCaches()
			}
		}
		base := testing.AllocsPerRun(20, cycle(false))
		with := testing.AllocsPerRun(20, cycle(true))
		if extra := with - base; extra > 1 {
			t.Errorf("%s: a pooled parallel epoch costs %v allocations beyond construction (%v vs %v): lanes were rebuilt",
				v.Name, extra, with, base)
		}
	}
}

// TestRunContextCancellation: an already-cancelled context aborts before
// the first epoch; a deadline mid-run aborts at the next epoch barrier,
// promptly, with a context-classifiable error, and without poisoning the
// pools for the next run. Both hold under every combination of run
// options, and the progress callback sees the aborted run's final
// snapshot.
func TestRunContextCancellation(t *testing.T) {
	c := core.CompileT(t, core.StencilSrc)
	cfg := machine.Default(machine.SchemeTPI)
	cfg.Procs = 8

	want, err := core.Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range core.OptionCombos() {
		var last sim.Progress
		opts.Ctx = ctx
		opts.Progress = func(p sim.Progress) { last = p }
		if _, err := core.RunWithOptions(c, cfg, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", core.ComboName(opts), err)
		}
		if !last.Done {
			t.Fatalf("%s: no final progress snapshot", core.ComboName(opts))
		}
	}

	// A long run (many epochs) against a short deadline: the abort must
	// land at an epoch barrier within moments of the deadline.
	long := core.CompileT(t, `
program longrun
param n = 16
array A[n]
proc main() {
  doall i = 0 to n-1 { A[i] = i }
  for t = 0 to 200000 {
    doall i = 0 to n-1 { A[i] = A[i] + 1.0 }
  }
}
`)
	const deadline = 50 * time.Millisecond
	for _, opts := range core.OptionCombos() {
		if opts.Memory || opts.Verify {
			continue // they act only after the run: the abort precedes them
		}
		dctx, dcancel := context.WithTimeout(context.Background(), deadline)
		opts.Ctx = dctx
		start := time.Now()
		_, err = core.RunWithOptions(long, cfg, opts)
		elapsed := time.Since(start)
		dcancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: want context.DeadlineExceeded, got %v (after %v)", core.ComboName(opts), err, elapsed)
		}
		if elapsed > deadline+100*time.Millisecond {
			t.Fatalf("%s: deadline abort took %v (deadline %v + 100ms grace)", core.ComboName(opts), elapsed, deadline)
		}
	}

	// The aborted runs released their systems; the pools still serve
	// fresh state.
	again, err := core.Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if core.SnapshotKey(t, again.Snapshot()) != core.SnapshotKey(t, want.Snapshot()) {
		t.Fatal("run after cancelled runs diverges: pooled state leaked")
	}
}
