package core

import (
	"encoding/json"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// stencilSrc exercises producer/consumer flow, stencils with false
// sharing, serial reductions, a time-stepping loop, and a procedure call.
const stencilSrc = `
program stencil
param n = 32
scalar resid = 0.0
array A[n][n]
array B[n][n]
array W[n]

proc main() {
  doall i = 0 to n-1 {
    W[i] = 1.0 + i * 0.001
    for j = 0 to n-1 {
      A[i][j] = i * n + j
      B[i][j] = 0.0
    }
  }
  for t = 0 to 3 {
    doall i = 1 to n-2 {
      for j = 1 to n-2 {
        B[i][j] = (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]) * 0.25 * W[i]
      }
    }
    doall i = 1 to n-2 {
      for j = 1 to n-2 {
        A[i][j] = B[i][j] * W[i]
        A[i][j] = A[i][j] + B[i][j] * 0.0625
      }
    }
  }
  call accumulate(A)
}

proc accumulate(X[][]) {
  doall i = 0 to n-1 {
    critical {
      resid = resid + X[i][i]
    }
  }
}
`

func compileT(t *testing.T, src string) *Compiled {
	t.Helper()
	c, err := Compile(src, DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	return c
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

func TestAllSchemesMatchOracle(t *testing.T) {
	c := compileT(t, stencilSrc)
	for _, s := range machine.AllSchemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := machine.Default(s)
			cfg.Procs = 8
			st, err := VerifyAgainstOracle(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Reads == 0 || st.Writes == 0 {
				t.Fatalf("no traffic recorded: %+v", st)
			}
			t.Logf("%s", st)
		})
	}
}

func TestSchemesMatchOracleUnderMigration(t *testing.T) {
	c := compileT(t, stencilSrc)
	for _, s := range machine.AllSchemes {
		cfg := machine.Default(s)
		cfg.Procs = 8
		cfg.MigrateSerial = true
		cfg.CyclicSched = true
		if _, err := VerifyAgainstOracle(c, cfg); err != nil {
			t.Fatalf("%s with migration: %v", s, err)
		}
	}
}

func TestTinyTimetagStillCorrect(t *testing.T) {
	// 2-bit timetags force constant resets; correctness must survive.
	c := compileT(t, stencilSrc)
	cfg := machine.Default(machine.SchemeTPI)
	cfg.Procs = 8
	cfg.TimetagBits = 2
	st, err := VerifyAgainstOracle(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.TimetagResets == 0 {
		t.Fatal("2-bit timetags must trigger resets on this workload")
	}
}

func TestFlashResetAblationCorrect(t *testing.T) {
	c := compileT(t, stencilSrc)
	cfg := machine.Default(machine.SchemeTPI)
	cfg.Procs = 8
	cfg.TimetagBits = 4
	cfg.FlashReset = true
	if _, err := VerifyAgainstOracle(c, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMissRateOrdering(t *testing.T) {
	// The paper's headline: TPI and HW are comparable; both far better
	// than SC and BASE on miss rate.
	c := compileT(t, stencilSrc)
	rates := map[machine.Scheme]float64{}
	for _, s := range machine.AllSchemes {
		cfg := machine.Default(s)
		cfg.Procs = 8
		st, err := Run(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rates[s] = st.MissRate()
	}
	t.Logf("miss rates: %v", rates)
	if !(rates[machine.SchemeBase] > rates[machine.SchemeSC]) {
		t.Errorf("BASE (%f) should miss more than SC (%f): SC keeps intra-task reuse",
			rates[machine.SchemeBase], rates[machine.SchemeSC])
	}
	if !(rates[machine.SchemeSC] > rates[machine.SchemeTPI]) {
		t.Errorf("SC (%f) should miss more than TPI (%f)", rates[machine.SchemeSC], rates[machine.SchemeTPI])
	}
	// TPI within a small factor of HW.
	if rates[machine.SchemeTPI] > 5*rates[machine.SchemeHW]+0.01 {
		t.Errorf("TPI (%f) should be comparable to HW (%f)", rates[machine.SchemeTPI], rates[machine.SchemeHW])
	}
}

func TestAnalysisAblationsStillCorrect(t *testing.T) {
	// Disabling the compiler analyses must never break correctness — only
	// performance.
	for _, interproc := range []bool{true, false} {
		for _, reuse := range []bool{true, false} {
			c, err := Compile(stencilSrc, CompileOptions{
				Interproc:      interproc,
				FirstReadReuse: reuse,
				AlignWords:     4,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.Default(machine.SchemeTPI)
			cfg.Procs = 8
			cfg.Interproc = interproc
			cfg.FirstReadReuse = reuse
			if _, err := VerifyAgainstOracle(c, cfg); err != nil {
				t.Fatalf("interproc=%v reuse=%v: %v", interproc, reuse, err)
			}
		}
	}
}

func TestNonAffineSubscriptsCorrect(t *testing.T) {
	// The paper's Figure-1 motivation: X(f(i)) with a runtime index
	// cannot be analyzed; the compiler must fall back to conservative
	// Time-Reads and the result must still match the oracle.
	src := `
program gather
param n = 24
array IDX[n]
array X[n]
array Y[n]
proc main() {
  doall i = 0 to n-1 {
    IDX[i] = (i * 7) % n
    X[i] = i
  }
  doall i = 0 to n-1 {
    Y[i] = X[IDX[i]]
  }
  doall i = 0 to n-1 {
    X[i] = X[i] + Y[(i + IDX[i]) % n]
  }
}
`
	c := compileT(t, src)
	for _, s := range machine.AllSchemes {
		cfg := machine.Default(s)
		cfg.Procs = 4
		if _, err := VerifyAgainstOracle(c, cfg); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func TestConditionalFlowCorrect(t *testing.T) {
	src := `
program branchy
param n = 16
scalar phase = 1.0
array A[n]
array B[n]
proc main() {
  doall i = 0 to n-1 { A[i] = i }
  if (phase > 0.0) {
    doall i = 0 to n-1 { B[i] = A[i] * 2.0 }
  } else {
    doall i = 0 to n-1 { B[i] = 0.0 - A[i] }
  }
  phase = 0.0 - phase
  if (phase > 0.0) {
    doall i = 0 to n-1 { A[i] = B[i] + 1.0 }
  } else {
    doall i = 0 to n-1 { A[i] = B[i] - 1.0 }
  }
}
`
	c := compileT(t, src)
	for _, s := range machine.AllSchemes {
		cfg := machine.Default(s)
		cfg.Procs = 4
		if _, err := VerifyAgainstOracle(c, cfg); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func TestExecutionTimeOrdering(t *testing.T) {
	c := compileT(t, stencilSrc)
	cycles := map[machine.Scheme]int64{}
	for _, s := range machine.AllSchemes {
		cfg := machine.Default(s)
		cfg.Procs = 8
		st, err := Run(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cycles[s] = st.Cycles
	}
	t.Logf("cycles: %v", cycles)
	if !(cycles[machine.SchemeBase] > cycles[machine.SchemeTPI]) {
		t.Errorf("BASE (%d cycles) must be slower than TPI (%d)", cycles[machine.SchemeBase], cycles[machine.SchemeTPI])
	}
	if !(cycles[machine.SchemeSC] > cycles[machine.SchemeTPI]) {
		t.Errorf("SC (%d cycles) must be slower than TPI (%d)", cycles[machine.SchemeSC], cycles[machine.SchemeTPI])
	}
}

// oracleMemory returns the sequential oracle's final memory for c.
func oracleMemory(t *testing.T, c *Compiled) []float64 {
	t.Helper()
	sys, cfg := oracle(c)
	res, err := execute(c, sys, cfg, RunOptions{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Memory
}

// TestOracleTakesNoFastPath: the Oracle supports both fast paths like
// every system, but the reference run must stay on the sequential scalar
// path, or VerifyAgainstOracle would check the fast paths against
// themselves.
func TestOracleTakesNoFastPath(t *testing.T) {
	c := compileT(t, stencilSrc)
	var last sim.Progress
	sys, cfg := oracle(c)
	if _, err := execute(c, sys, cfg, RunOptions{Progress: func(p sim.Progress) { last = p }}); err != nil {
		t.Fatal(err)
	}
	if !last.Done {
		t.Fatal("no final progress snapshot")
	}
	if last.StreamLoops != 0 || last.HostParEpochs != 0 || last.HostParWorkers != 0 {
		t.Fatalf("oracle run took a fast path: %d stream loops, %d host-parallel epochs on %d workers",
			last.StreamLoops, last.HostParEpochs, last.HostParWorkers)
	}
	if last.StreamFallbacks == 0 || last.SeqDoallEpochs == 0 {
		t.Fatalf("the stencil offered no stream loop or doall (%d, %d): the check proves nothing",
			last.StreamFallbacks, last.SeqDoallEpochs)
	}
}
