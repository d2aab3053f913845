package sim

import (
	"reflect"
	"strings"
	"testing"

	hwdir "repro/internal/directory"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
	"repro/internal/swschemes"
	"repro/internal/tardis"
	"repro/internal/tpi"
	"repro/internal/vc"
)

// streamSystem builds the one system an equivalence run covers: any of
// the eight scheme variants, or the sequential Oracle (whose cursors
// delegate every reference to its scalar path). cfg is the scheme's
// default configuration before the case's mutation.
func streamSystem(t *testing.T, scheme string, mut func(*machine.Config), p *prog.Prog) (memsys.System, machine.Config) {
	t.Helper()
	base := map[string]machine.Scheme{
		"BASE": machine.SchemeBase, "SC": machine.SchemeSC, "TPI": machine.SchemeTPI,
		"TPI2L": machine.SchemeTPI, "HW": machine.SchemeHW, "VC": machine.SchemeVC,
		"TARDIS": machine.SchemeTardis, "TARDIS2": machine.SchemeTardis2,
		"ORACLE": machine.SchemeTPI,
	}
	sch, ok := base[scheme]
	if !ok {
		t.Fatalf("unknown scheme %q", scheme)
	}
	cfg := machine.Default(sch)
	cfg.Procs = 4
	if scheme == "TPI2L" {
		cfg.L1Words = 16
	}
	if mut != nil {
		mut(&cfg)
	}
	switch scheme {
	case "BASE":
		return swschemes.NewBase(cfg, p.MemWords), cfg
	case "SC":
		return swschemes.NewSC(cfg, p.MemWords), cfg
	case "TPI":
		return tpi.New(cfg, p.MemWords), cfg
	case "TPI2L":
		return tpi.NewTwoLevel(cfg, p.MemWords), cfg
	case "HW":
		return hwdir.New(cfg, p.MemWords), cfg
	case "VC":
		return vc.New(cfg, p), cfg
	case "TARDIS", "TARDIS2":
		return tardis.New(cfg, p.MemWords), cfg
	default:
		return memsys.NewOracle(cfg, p.MemWords), cfg
	}
}

// runStreamCase runs src on one fresh system with FastPath set, and
// returns (cycles, snapshot, memory image).
func runStreamCase(t *testing.T, src, scheme string, fast bool, mut func(*machine.Config)) (int64, any, []float64) {
	t.Helper()
	p, m := compileSrc(t, src)
	sys, cfg := streamSystem(t, scheme, func(c *machine.Config) {
		c.FastPath = fast
		if mut != nil {
			mut(c)
		}
	}, p)
	st, err := newRunner(t, p, m, sys, cfg).Run()
	if err != nil {
		t.Fatalf("%s fast=%v: %v", scheme, fast, err)
	}
	snap, mem := st.Snapshot(), sys.Mem().Snapshot()
	sys.ReleaseCaches()
	return st.Cycles, snap, mem
}

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

// TestStreamFastPathEquivalence is the tentpole's oracle at the sim
// level: the stream fast path, alone and with -hostpar 4, must produce
// cycles, stats snapshots, and final memory images bit-identical to the
// sequential scalar run, for every scheme variant and the Oracle, under
// weak and sequential consistency, static and dynamic scheduling, and
// TPI's write-back and line-timetag knobs.
func TestStreamFastPathEquivalence(t *testing.T) {
	muts := map[string]func(*machine.Config){
		"default":   nil,
		"seqc":      func(c *machine.Config) { c.SeqConsistency = true },
		"dynamic":   func(c *machine.Config) { c.DynamicSched = true },
		"cyclic":    func(c *machine.Config) { c.CyclicSched = true },
		"writeback": func(c *machine.Config) { c.TPIWriteBack = true },
		"linett":    func(c *machine.Config) { c.LineTimetags = true },
	}
	for _, scheme := range []string{"BASE", "SC", "TPI", "TPI2L", "HW", "VC", "TARDIS", "TARDIS2", "ORACLE"} {
		for name, mut := range muts {
			t.Run(scheme+"/"+name, func(t *testing.T) {
				offC, offS, offM := runStreamCase(t, streamEquivSrc, scheme, false, mut)
				hostpar := func(c *machine.Config) {
					if mut != nil {
						mut(c)
					}
					c.HostParallel = 4
				}
				for mode, m := range map[string]func(*machine.Config){"stream": mut, "stream+hostpar4": hostpar} {
					onC, onS, onM := runStreamCase(t, streamEquivSrc, scheme, true, m)
					if onC != offC {
						t.Errorf("%s: cycles diverge: %d, scalar %d", mode, onC, offC)
					}
					if !reflect.DeepEqual(onS, offS) {
						t.Errorf("%s: snapshots diverge:\n%+v\nscalar %+v", mode, onS, offS)
					}
					if !reflect.DeepEqual(onM, offM) {
						t.Errorf("%s: final memory images diverge", mode)
					}
				}
			})
		}
	}
}

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

// TestStreamZeroAndSingleIteration: degenerate trip counts must leave
// the loop-variable slot and the cycle count exactly as the scalar loop
// does (zero iterations touch nothing; the slot holds the last executed
// value afterwards).
func TestStreamZeroAndSingleIteration(t *testing.T) {
	src := `
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
`
	for _, scheme := range []string{"BASE", "SC", "TPI"} {
		onC, onS, onM := runStreamCase(t, src, scheme, true, nil)
		offC, offS, offM := runStreamCase(t, src, scheme, false, nil)
		if onC != offC || !reflect.DeepEqual(onS, offS) || !reflect.DeepEqual(onM, offM) {
			t.Errorf("%s: degenerate loops diverge (cycles %d vs %d)", scheme, onC, offC)
		}
	}
}

// TestStreamNonCapableScheme: two-level TPI, whose cursors wrap TPI's in
// the on-chip L1 filter, must match its own fastpath-off run.
func TestStreamNonCapableScheme(t *testing.T) {
	p, m := compileSrc(t, streamEquivSrc)
	run := func(fast bool) (int64, []float64) {
		cfg := machine.Default(machine.SchemeTPI)
		cfg.Procs = 4
		cfg.L1Words = 1024
		cfg.FastPath = fast
		sys := tpi.NewTwoLevel(cfg, p.MemWords)
		st, err := newRunner(t, p, m, sys, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles, sys.Mem().Snapshot()
	}
	onC, onM := run(true)
	offC, offM := run(false)
	if onC != offC || !reflect.DeepEqual(onM, offM) {
		t.Errorf("two-level TPI diverges under FastPath (cycles %d vs %d)", onC, offC)
	}
}

// TestStreamCriticalSectionStaysScalar: a streamable-shaped loop inside
// a critical section must take the scalar path (bypass reads, critical
// writes) — results must match the fastpath-off run exactly.
func TestStreamCriticalSectionStaysScalar(t *testing.T) {
	src := `
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
`
	for _, scheme := range []string{"SC", "TPI", "TPI2L", "HW", "VC", "TARDIS", "TARDIS2"} {
		onC, onS, onM := runStreamCase(t, src, scheme, true, nil)
		offC, offS, offM := runStreamCase(t, src, scheme, false, nil)
		if onC != offC || !reflect.DeepEqual(onS, offS) || !reflect.DeepEqual(onM, offM) {
			t.Errorf("%s: critical-section loop diverges (cycles %d vs %d)", scheme, onC, offC)
		}
	}
}
