package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
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
	good := compileT(t, stencilSrc)
	bad := compileT(t, faultySrc)

	for _, s := range machine.AllSchemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := machine.Default(s)
			cfg.Procs = 8

			before, err := Run(good, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := before.Snapshot()

			if _, err := Run(bad, cfg); err == nil {
				t.Fatal("faulty program ran to completion")
			} else if !strings.Contains(err.Error(), "subscript") && !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("unexpected fault: %v", err)
			}
			for _, opts := range optionCombos() {
				if _, err := RunWithOptions(bad, cfg, opts); err == nil {
					t.Fatalf("%s: faulty program ran to completion", comboName(opts))
				}
			}

			after, err := Run(good, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if snapshotKey(t, after.Snapshot()) != snapshotKey(t, want) {
				t.Fatalf("pooled state leaked across a failed run:\nbefore %s\nafter  %s",
					snapshotKey(t, want), snapshotKey(t, after.Snapshot()))
			}
		})
	}
}

// laneVariants are the scheme variants whose runs route through pooled
// lanes: the always-buffered schemes in every run, TPI, TPI2L and SC in
// host-parallel runs.
func laneVariants() []struct {
	name string
	cfg  machine.Config
} {
	var vs []struct {
		name string
		cfg  machine.Config
	}
	add := func(name string, s machine.Scheme, l1 int64) {
		cfg := machine.Default(s)
		cfg.Procs = 8
		cfg.L1Words = l1
		vs = append(vs, struct {
			name string
			cfg  machine.Config
		}{name, cfg})
	}
	add("TPI", machine.SchemeTPI, 0)
	add("TPI2L", machine.SchemeTPI, 1024)
	add("SC", machine.SchemeSC, 0)
	add("HW", machine.SchemeHW, 0)
	add("VC", machine.SchemeVC, 0)
	add("TARDIS", machine.SchemeTardis, 0)
	add("TARDIS2", machine.SchemeTardis2, 0)
	return vs
}

// TestLanePoolFreshness: every scheme returns its per-processor lanes
// (and HW and Tardis their action logs) to pools shared across runs. A
// run must see fresh pool state regardless of what earlier runs — other
// schemes, host-parallel workers, a mid-run fault — handed back:
// back-to-back runs through the pooled path, sequential and with four
// host workers, must be bit-identical.
func TestLanePoolFreshness(t *testing.T) {
	good := compileT(t, stencilSrc)
	bad := compileT(t, faultySrc)
	variants := laneVariants()

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			par := v.cfg
			par.HostParallel = 4
			var want []string
			for _, cfg := range []machine.Config{v.cfg, par} {
				st, err := Run(good, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, snapshotKey(t, st.Snapshot()))
			}

			// Churn the pools: host-parallel runs of every lane variant
			// (their workers draw lanes and merge logs), stream fast-path
			// runs, and a faulting run that releases mid-simulation.
			for _, churn := range variants {
				ccfg := churn.cfg
				ccfg.HostParallel = 4
				if _, err := Run(good, ccfg); err != nil {
					t.Fatal(err)
				}
				if _, err := Run(bad, ccfg); err == nil {
					t.Fatal("faulty program ran to completion")
				}
			}

			for i, cfg := range []machine.Config{v.cfg, par} {
				st, err := Run(good, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := snapshotKey(t, st.Snapshot()); got != want[i] {
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
	c := compileT(t, stencilSrc)
	for _, v := range laneVariants() {
		cfg := v.cfg
		cfg.Procs = 16
		cfg.HostParallel = 4
		cycle := func(epoch bool) func() {
			return func() {
				sys, err := NewSystem(cfg, c.Prog)
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
				v.name, extra, with, base)
		}
	}
}

// snapshotKey is a snapshot's bit-exact identity for equality checks.
func snapshotKey(t *testing.T, s stats.Snapshot) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunContextCancellation: an already-cancelled context aborts before
// the first epoch; a deadline mid-run aborts at the next epoch barrier,
// promptly, with a context-classifiable error, and without poisoning the
// pools for the next run. Both hold under every combination of run
// options, and the progress callback sees the aborted run's final
// snapshot.
func TestRunContextCancellation(t *testing.T) {
	c := compileT(t, stencilSrc)
	cfg := machine.Default(machine.SchemeTPI)
	cfg.Procs = 8

	want, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range optionCombos() {
		var last sim.Progress
		opts.Ctx = ctx
		opts.Progress = func(p sim.Progress) { last = p }
		if _, err := RunWithOptions(c, cfg, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", comboName(opts), err)
		}
		if !last.Done {
			t.Fatalf("%s: no final progress snapshot", comboName(opts))
		}
	}

	// A long run (many epochs) against a short deadline: the abort must
	// land at an epoch barrier within moments of the deadline.
	long := compileT(t, `
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
	for _, opts := range optionCombos() {
		if opts.Memory || opts.Verify {
			continue // they act only after the run: the abort precedes them
		}
		dctx, dcancel := context.WithTimeout(context.Background(), deadline)
		opts.Ctx = dctx
		start := time.Now()
		_, err = RunWithOptions(long, cfg, opts)
		elapsed := time.Since(start)
		dcancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: want context.DeadlineExceeded, got %v (after %v)", comboName(opts), err, elapsed)
		}
		if elapsed > deadline+100*time.Millisecond {
			t.Fatalf("%s: deadline abort took %v (deadline %v + 100ms grace)", comboName(opts), elapsed, deadline)
		}
	}

	// The aborted runs released their systems; the pools still serve
	// fresh state.
	again, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snapshotKey(t, again.Snapshot()) != snapshotKey(t, want.Snapshot()) {
		t.Fatal("run after cancelled runs diverges: pooled state leaked")
	}
}
