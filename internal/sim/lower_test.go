package sim

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
)

// TestLowerDiagnosesConstZeroStep: a statically-zero loop step is a
// lower-time error (the interpreter only found it on execution).
func TestLowerDiagnosesConstZeroStep(t *testing.T) {
	p, m := compileSrc(t, `
program p
scalar s = 0
proc main() {
  for i = 0 to 3 step 0 { s = i }
}
`)
	if _, err := Lower(p, m); err == nil || !strings.Contains(err.Error(), "loop step is zero") {
		t.Fatalf("err = %v, want zero-step diagnostic", err)
	}
}

// TestLowerDiagnosesConstZeroStepInDeadCode: lowering is eager, so the
// diagnostic fires even when the loop could never execute.
func TestLowerDiagnosesConstZeroStepInDeadCode(t *testing.T) {
	p, m := compileSrc(t, `
program p
scalar s = 0
proc main() {
  if (0) {
    for i = 0 to 3 step 0 { s = i }
  }
}
`)
	if _, err := Lower(p, m); err == nil || !strings.Contains(err.Error(), "loop step is zero") {
		t.Fatalf("err = %v, want zero-step diagnostic", err)
	}
}

// TestLoweredProgramReusable: one lowered Program drives many runners;
// every run must produce identical results and timing (execute-many is
// the whole point of lowering).
func TestLoweredProgramReusable(t *testing.T) {
	src := `
program p
param n = 8
array A[n][n]
scalar acc = 0
proc main() {
  doall i = 0 to n-1 {
    for j = 0 to n-1 { A[i][j] = i*n + j }
  }
  for i = 0 to n-1 {
    for j = 0 to n-1 { acc = acc + A[i][j] }
  }
}
`
	p, m := compileSrc(t, src)
	lp, err := Lower(p, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 4

	var cycles, epochs int64
	var acc float64
	for run := 0; run < 3; run++ {
		sys := memsys.NewOracle(cfg, p.MemWords)
		st, err := NewLowered(lp, sys, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		got := scalarVal(t, p, sys, "acc")
		if run == 0 {
			cycles, epochs, acc = st.Cycles, st.Epochs, got
			if acc != 2016 { // sum of 0..63
				t.Fatalf("acc = %v, want 2016", acc)
			}
			continue
		}
		if st.Cycles != cycles || st.Epochs != epochs || got != acc {
			t.Fatalf("run %d diverged: cycles %d/%d epochs %d/%d acc %v/%v",
				run, st.Cycles, cycles, st.Epochs, epochs, got, acc)
		}
	}
}

// TestLoweredRuntimeErrors: faults the closure IR must leave to run time
// abort the run with the interpreter's message — division by zero, a
// constant intrinsic application that errs (folding refuses it), and a
// loop step that is zero at run time.
func TestLoweredRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div-by-zero", `
program p
scalar s = 0
scalar z = 0
proc main() {
  s = 1 / z
}
`, "division by zero"},
		{"sqrt-negative-const", `
program p
scalar s = 0
proc main() {
  s = sqrt(0 - 1)
}
`, "sqrt of negative value"},
		{"runtime-zero-step", `
program p
scalar s = 0
scalar z = 0
proc main() {
  for i = 0 to 3 step z { s = i }
}
`, "loop step is zero"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, m := compileSrc(t, tc.src)
			lp, err := Lower(p, m)
			if err != nil {
				t.Fatalf("Lower must not fail (runtime error): %v", err)
			}
			cfg := machine.Default(machine.SchemeBase)
			cfg.Procs = 2
			_, err = NewLowered(lp, memsys.NewOracle(cfg, p.MemWords), cfg).Run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestConstFoldingPreservesCharges: an expression over params folds to a
// constant but must charge the same operator cycles as the unfolded
// tree, so timing results are invariant under folding.
func TestConstFoldingPreservesCharges(t *testing.T) {
	// s = n*n + n  (params: 2 mults-adds charged even when folded)
	folded := `
program p
param n = 4
scalar s = 0
proc main() {
  s = n*n + n
}
`
	// Same shape with a runtime scalar forced to the same values would
	// add load stalls, so instead compare against the literal tree
	// 4*4 + 4, which the interpreter charged identically (3 operators).
	literal := `
program p
scalar s = 0
proc main() {
  s = 4*4 + 4
}
`
	run := func(src string) (int64, float64) {
		p, m := compileSrc(t, src)
		cfg := machine.Default(machine.SchemeBase)
		cfg.Procs = 2
		sys := memsys.NewOracle(cfg, p.MemWords)
		st, err := newRunner(t, p, m, sys, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles, scalarVal(t, p, sys, "s")
	}
	fc, fv := run(folded)
	lc, lv := run(literal)
	if fv != 20 || lv != 20 {
		t.Fatalf("values: folded %v literal %v, want 20", fv, lv)
	}
	if fc != lc {
		t.Fatalf("cycles diverge under folding: param-folded %d, literal %d", fc, lc)
	}
}

// TestBindOnlyToTheSameGlobals: an IR binds to any layout of its own
// program, padded scalars included, and to nothing else: a layout with
// other globals, or the same names in other shapes, is an error.
func TestBindOnlyToTheSameGlobals(t *testing.T) {
	const src = `
program p
scalar s = 2.5
array A[8][4]
proc main() { A[1][2] = s }
`
	p, m := compileSrc(t, src)
	lp, err := Lower(p, m)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := prog.BuildPadded(p.Info, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := lp.IR().Bind(padded)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Default(machine.SchemeBase)
	sys := memsys.NewOracle(cfg, padded.MemWords)
	if _, err := NewLowered(bound, sys, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Mem().Read(padded.Arrays["A"].Base + 6); got != 2.5 {
		t.Fatalf("A[1][2] at the padded layout = %v, want 2.5", got)
	}
	for _, other := range []string{
		"program p\nscalar s = 2.5\narray A[4][8]\nproc main() { A[1][2] = s }",
		"program p\nscalar t = 2.5\narray A[8][4]\nproc main() { A[1][2] = t }",
		"program p\narray A[8][4]\nproc main() { A[1][2] = 1 }",
	} {
		op, _ := compileSrc(t, other)
		if _, err := lp.IR().Bind(op); err == nil {
			t.Errorf("Bind to the layout of %q: no error", other)
		}
	}
}
