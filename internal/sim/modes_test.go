package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/core/modetest"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/sim"
)

// streamEquivSrc exercises the recognizer's full surface: 1D and 2D
// affine subscripts (including reversed and strided), stride-0 scalar
// read and write streams (a reduction), multi-statement bodies,
// intrinsics and mod in the RHS, and enclosing-loop variables in
// subscripts.
const streamEquivSrc = `
program p
param n = 24
array A[n][n]
array Anew[n][n]
array B[n]
scalar acc = 0
scalar lastj = 0
proc main() {
  doall i = 0 to n-1 {
    for j = 0 to n-1 {
      A[i][j] = i*n + j
      B[j] = j % 5
    }
  }
  doall i = 1 to n-2 {
    for j = n-2 to 1 step 0-1 {
      Anew[i][j] = (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]) / 4 + sqrt(B[j])
    }
  }
  for i = 0 to n-1 {
    for j = 0 to n-1 step 3 {
      acc = acc + Anew[i][j] + min(B[j], 2)
      lastj = j
    }
  }
}
`

func compile(t *testing.T, src string) *core.Compiled {
	t.Helper()
	c, err := core.Compile(src, core.DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// oracleRuns runs c on the sequential Oracle, whose cursors delegate
// every reference to its scalar path. core builds the Oracle only to
// verify other systems, so this stands in for core.RunWithOptions; the
// Oracle is its own reference, so there is nothing to verify.
func oracleRuns(c *core.Compiled) modetest.RunFunc {
	return func(cfg machine.Config, opts core.RunOptions) (core.Result, error) {
		lp, err := c.Lowered()
		if err != nil {
			return core.Result{}, err
		}
		sys := memsys.NewOracle(cfg, c.Prog.MemWords)
		defer sys.ReleaseCaches()
		r := sim.NewLowered(lp, sys, cfg)
		var rec *obs.Recorder
		if opts.Obs != obs.LevelOff {
			if rec, err = obs.NewRecorder(opts.Obs, core.BuildObsMeta(c, cfg), nil); err != nil {
				return core.Result{}, err
			}
			r.SetObserver(rec)
			sys.SetProbe(rec)
		}
		st, err := r.Run()
		if err != nil {
			return core.Result{}, err
		}
		res := core.Result{Stats: st, Memory: sys.Mem().Snapshot()}
		if rec != nil {
			res.Report, err = rec.Finish(st)
		}
		return res, err
	}
}

// TestStreamFastPathEquivalence is the stream fast path's oracle at the
// sim level: every execution mode gives cycles, stats snapshots, obs
// reports and final memory images bit-identical to the sequential
// scalar run, for every scheme variant and the Oracle, under weak and
// sequential consistency, static, cyclic and dynamic scheduling, and
// TPI's write-back and line-timetag knobs.
func TestStreamFastPathEquivalence(t *testing.T) {
	c := compile(t, streamEquivSrc)
	muts := map[string]func(*machine.Config){
		"default":   func(*machine.Config) {},
		"seqc":      func(c *machine.Config) { c.SeqConsistency = true },
		"dynamic":   func(c *machine.Config) { c.DynamicSched = true },
		"cyclic":    func(c *machine.Config) { c.CyclicSched = true },
		"writeback": func(c *machine.Config) { c.TPIWriteBack = true },
		"linett":    func(c *machine.Config) { c.LineTimetags = true },
	}
	for name, mut := range muts {
		for _, v := range modetest.Variants {
			t.Run(v.Name+"/"+name, func(t *testing.T) {
				cfg := v.Config(4, 16)
				mut(&cfg)
				if _, err := modetest.Check(c, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Run("ORACLE/"+name, func(t *testing.T) {
			cfg := machine.Default(machine.SchemeTPI)
			cfg.Procs = 4
			mut(&cfg)
			if _, err := modetest.CheckRuns(oracleRuns(c), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamZeroAndSingleIteration: degenerate trip counts must leave
// the loop-variable slot and the cycle count exactly as the scalar loop
// does (zero iterations touch nothing; the slot holds the last executed
// value afterwards).
func TestStreamZeroAndSingleIteration(t *testing.T) {
	c := compile(t, `
program p
param n = 8
array A[n]
scalar seen = 0
proc main() {
  doall i = 0 to 0 {
    for j = 5 to 2 { A[j] = j }
    for j = 3 to 3 { A[j] = j }
    seen = 1
  }
}
`)
	for _, v := range modetest.Variants {
		if _, err := modetest.Check(c, v.Config(4, 16)); err != nil {
			t.Errorf("%s: degenerate loops: %v", v.Name, err)
		}
	}
}

// TestStreamNonCapableScheme: two-level TPI, whose cursors wrap TPI's in
// the on-chip L1 filter, matches its own scalar run at an L1 the size of
// the whole working set.
func TestStreamNonCapableScheme(t *testing.T) {
	c := compile(t, streamEquivSrc)
	for _, v := range modetest.Variants {
		if !v.TwoLevel {
			continue
		}
		if _, err := modetest.Check(c, v.Config(4, 1024)); err != nil {
			t.Error(err)
		}
	}
}

// TestStreamCriticalSectionStaysScalar: a streamable-shaped loop inside
// a critical section must take the scalar path (bypass reads, critical
// writes) — results must match the scalar run exactly.
func TestStreamCriticalSectionStaysScalar(t *testing.T) {
	c := compile(t, `
program p
param n = 8
array A[n]
scalar s = 0
proc main() {
  doall i = 0 to 3 {
    critical {
      for j = 0 to n-1 { s = s + 1 }
    }
  }
  doall i = 0 to 3 {
    for j = 0 to n-1 { A[j] = s + j }
  }
}
`)
	for _, v := range modetest.Variants {
		if _, err := modetest.Check(c, v.Config(4, 16)); err != nil {
			t.Errorf("%s: critical-section loop: %v", v.Name, err)
		}
	}
}
