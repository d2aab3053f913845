package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/parallelize"
	"repro/internal/pfl"
)

// sequentialStencil is the stencil benchmark written as plain sequential
// code — the form the paper's toolchain starts from before Polaris.
const sequentialStencil = `
program seqstencil
param n = 24
array A[n][n]
array B[n][n]
array W[n]

proc main() {
  for i = 0 to n-1 {
    W[i] = 1.0 + i * 0.001
    for j = 0 to n-1 {
      A[i][j] = i * n + j
      B[i][j] = 0.0
    }
  }
  for t = 0 to 2 {
    for i = 1 to n-2 {
      for j = 1 to n-2 {
        B[i][j] = (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]) * 0.25 * W[i]
      }
    }
    for i = 1 to n-2 {
      for j = 1 to n-2 {
        A[i][j] = B[i][j]
      }
    }
  }
}
`

// compileParallelized runs the auto-parallelizer then the full pipeline.
func compileParallelized(t *testing.T, src string) (*Compiled, *parallelize.Report) {
	t.Helper()
	ast, err := pfl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pfl.Check(ast); err != nil {
		t.Fatal(err)
	}
	rep, err := parallelize.Run(ast)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(pfl.Format(ast), DefaultCompileOptions())
	if err != nil {
		t.Fatalf("parallelized program does not compile: %v\n%s", err, pfl.Format(ast))
	}
	return c, rep
}

func TestAutoParallelizePipeline(t *testing.T) {
	c, rep := compileParallelized(t, sequentialStencil)
	// The two interior sweeps and the init loop must parallelize; the
	// time loop must not.
	if got := rep.NumParallelized(); got != 3 {
		t.Fatalf("parallelized %d loops, want 3:\n%s", got, rep)
	}
	if c.Info.NumDoalls != 3 {
		t.Fatalf("NumDoalls = %d, want 3", c.Info.NumDoalls)
	}

	// The parallelized program must compute exactly what the sequential
	// original computes.
	orig, err := Compile(sequentialStencil, DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantMem := oracleMemory(t, orig)
	gotMem := oracleMemory(t, c)
	if len(wantMem) != len(gotMem) {
		t.Fatalf("layout changed: %d vs %d words", len(wantMem), len(gotMem))
	}
	for i := range wantMem {
		if wantMem[i] != gotMem[i] {
			t.Fatalf("parallelization changed results at word %d: %v vs %v", i, wantMem[i], gotMem[i])
		}
	}

	// And every coherence scheme agrees with the oracle on it.
	for _, s := range machine.AllSchemes {
		cfg := machine.Default(s)
		cfg.Procs = 8
		if _, err := VerifyAgainstOracle(c, cfg); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}

	// Parallel execution must actually be faster than the serial form.
	cfgT := machine.Default(machine.SchemeTPI)
	stPar, err := Run(c, cfgT)
	if err != nil {
		t.Fatal(err)
	}
	stSer, err := Run(orig, cfgT)
	if err != nil {
		t.Fatal(err)
	}
	if stPar.Cycles*2 > stSer.Cycles {
		t.Errorf("auto-parallelized run (%d cycles) should be much faster than serial (%d)",
			stPar.Cycles, stSer.Cycles)
	}
}

func TestAutoParallelizeIsIdempotent(t *testing.T) {
	ast, err := pfl.Parse(sequentialStencil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pfl.Check(ast); err != nil {
		t.Fatal(err)
	}
	if _, err := parallelize.Run(ast); err != nil {
		t.Fatal(err)
	}
	first := pfl.Format(ast)
	rep2, err := parallelize.Run(ast)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.NumParallelized() != 0 {
		t.Fatalf("second pass parallelized %d more loops", rep2.NumParallelized())
	}
	if pfl.Format(ast) != first {
		t.Fatal("second pass changed the program")
	}
}

// randomSequential emits a random sequential program from a mix of
// parallelizable patterns (maps, stencils, reductions) and inherently
// serial ones (recurrences, scalar overwrites).
func randomSequential(seed int64) string {
	r := newDetRand(seed)
	var b strings.Builder
	b.WriteString("program seq\nparam n = 16\nscalar acc = 0.0\nscalar tmp = 0.0\n")
	b.WriteString("array A[n]\narray B[n]\narray C[n][n]\n\nproc main() {\n")
	b.WriteString("  for i = 0 to n-1 { A[i] = i * 0.5  B[i] = 1.0 }\n")
	b.WriteString("  for i = 0 to n-1 { for j = 0 to n-1 { C[i][j] = (i + j) * 0.01 } }\n")
	nc := 3 + r.Intn(4)
	for k := 0; k < nc; k++ {
		switch r.Intn(6) {
		case 0: // independent map
			fmt.Fprintf(&b, "  for i = 0 to n-1 { A[i] = B[i] * %.2f + %.2f }\n", 0.3+r.Float64(), r.Float64())
		case 1: // stencil into the other array
			b.WriteString("  for i = 1 to n-2 { B[i] = A[i-1] + A[i+1] }\n")
		case 2: // reduction
			b.WriteString("  for i = 0 to n-1 { acc = acc + A[i] * 0.125 }\n")
		case 3: // recurrence (must stay serial)
			b.WriteString("  for i = 1 to n-1 { A[i] = A[i-1] * 0.5 + B[i] }\n")
		case 4: // 2-D row sweep
			fmt.Fprintf(&b, "  for i = 0 to n-1 { for j = 0 to n-1 { C[i][j] = C[i][j] * %.2f } }\n", 0.4+r.Float64()*0.4)
		case 5: // scalar pipeline (serial)
			b.WriteString("  for i = 0 to n-1 { tmp = tmp * 0.9 + A[i]  B[i] = tmp }\n")
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// newDetRand avoids importing math/rand twice with different names.
func newDetRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestAutoParallelizeRandomProgramsPreserveSemantics(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := randomSequential(seed)
		orig, err := Compile(src, DefaultCompileOptions())
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		want := oracleMemory(t, orig)

		ast, err := pfl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pfl.Check(ast); err != nil {
			t.Fatal(err)
		}
		rep, err := parallelize.Run(ast)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		par, err := Compile(pfl.Format(ast), DefaultCompileOptions())
		if err != nil {
			t.Fatalf("seed %d: parallelized does not compile: %v\n%s", seed, err, pfl.Format(ast))
		}
		got := oracleMemory(t, par)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d: semantics changed at word %d (%v vs %v); %d loops parallelized\n%s",
					seed, i, want[i], got[i], rep.NumParallelized(), pfl.Format(ast))
			}
		}
		// Every scheme must agree with the oracle on the parallel form.
		for _, s := range []machine.Scheme{machine.SchemeTPI, machine.SchemeHW} {
			cfg := machine.Default(s)
			cfg.Procs = 4
			if _, err := VerifyAgainstOracle(par, cfg); err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, s, err, pfl.Format(ast))
			}
		}
	}
}
