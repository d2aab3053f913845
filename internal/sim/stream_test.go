package sim

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/tpi"
)

// TestStreamDiags pins the recognition report: which loops stream, and
// the reason (with position) for the ones that do not.
func TestStreamDiags(t *testing.T) {
	p, m := compileSrc(t, `
program p
param n = 8
array A[n]
array IDX[n]
scalar s = 0
proc main() {
  doall i = 0 to n-1 {
    for j = 0 to n-1 { A[j] = j }
    for j = 0 to n-1 { s = s + A[IDX[j]] }
    for j = 0 to n-1 {
      for k = 0 to n-1 { s = s + 1 }
    }
    for j = 0 to n-1 {
      if (j) { s = s + 1 }
    }
  }
}
`)
	lp, err := Lower(p, m)
	if err != nil {
		t.Fatal(err)
	}
	diags := lp.StreamDiags()
	// Four "for j" loops plus the nested "for k" (lowered within its
	// parent's body, so it reports too).
	byReason := map[string]int{}
	ok := 0
	for _, d := range diags {
		if d.OK {
			ok++
		} else {
			byReason[d.Reason]++
		}
	}
	if ok != 2 { // A[j]=j and the innermost k loop
		t.Errorf("streamable loops = %d, want 2 (diags: %+v)", ok, diags)
	}
	wantReasons := []string{
		`dynamic subscript: reads array "IDX"`,
		"nested loop",
		"conditional",
	}
	for _, want := range wantReasons {
		found := false
		for r := range byReason {
			if strings.Contains(r, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic mentioning %q (got %v)", want, byReason)
		}
	}
}

// TestStreamRuntimeErrors: a fault inside a streamed loop must abort
// with the exact scalar diagnostic — division by zero from the postfix
// interpreter, and a subscript range fault via the guard's fallback to
// the scalar iteration.
func TestStreamRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div-by-zero", `
program p
param n = 8
array A[n]
scalar z = 0
proc main() {
  doall i = 0 to 0 {
    for j = 0 to n-1 { A[j] = 1 / z }
  }
}
`, "division by zero"},
		{"subscript-range", `
program p
param n = 8
array A[n]
proc main() {
  doall i = 0 to 0 {
    for j = 0 to n-1 { A[j+1] = j }
  }
}
`, "subscript"},
		{"sqrt-negative", `
program p
param n = 8
array A[n]
array B[n]
proc main() {
  doall i = 0 to 0 {
    for j = 0 to n-1 { B[j] = 0 - j }
  }
  doall i = 0 to 0 {
    for j = 0 to n-1 { A[j] = sqrt(B[j]) }
  }
}
`, "sqrt of negative value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, m := compileSrc(t, tc.src)
			var msgs []string
			for _, fast := range []bool{true, false} {
				cfg := machine.Default(machine.SchemeTPI)
				cfg.Procs = 2
				cfg.FastPath = fast
				sys := tpi.New(cfg, p.MemWords)
				_, err := newRunner(t, p, m, sys, cfg).Run()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("fast=%v: err = %v, want %q", fast, err, tc.want)
				}
				msgs = append(msgs, err.Error())
			}
			if msgs[0] != msgs[1] {
				t.Errorf("diagnostics diverge:\nfast   %s\nscalar %s", msgs[0], msgs[1])
			}
		})
	}
}
