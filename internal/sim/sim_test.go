package sim

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/marking"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/pfl"
	"repro/internal/prog"
	"repro/internal/sections"
)

// compileSrc runs the pipeline pieces directly (sim cannot import core,
// which depends on it).
func compileSrc(t *testing.T, src string) (*prog.Prog, *marking.Result) {
	t.Helper()
	ast, err := pfl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := pfl.Check(ast)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prog.Build(info, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := sections.Analyze(p, sections.Options{Interproc: true})
	return p, marking.Compute(a, marking.DefaultOptions())
}

// newRunner lowers p and builds a runner over sys, failing the test on
// a lowering error.
func newRunner(t testing.TB, p *prog.Prog, m *marking.Result, sys memsys.System, cfg machine.Config) *Runner {
	t.Helper()
	lp, err := Lower(p, m)
	if err != nil {
		t.Fatal(err)
	}
	return NewLowered(lp, sys, cfg)
}

func runOracle(t *testing.T, src string, procs int, mutate func(*machine.Config)) (*memsys.Oracle, *Runner) {
	t.Helper()
	p, m := compileSrc(t, src)
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = procs
	if mutate != nil {
		mutate(&cfg)
	}
	sys := memsys.NewOracle(cfg, p.MemWords)
	r := newRunner(t, p, m, sys, cfg)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return sys, r
}

func scalarVal(t *testing.T, p *prog.Prog, sys memsys.System, name string) float64 {
	t.Helper()
	sc := p.Scalars[name]
	if sc == nil {
		t.Fatalf("no scalar %q", name)
	}
	return sys.Mem().Read(sc.Addr)
}

func TestEpochCountMatchesStructure(t *testing.T) {
	// entry + serial + doall + serial + exit = 5 epochs.
	_, r := runOracle(t, `
program p
param n = 4
array A[n]
proc main() {
  A[0] = 1
  doall i = 0 to n-1 { A[i] = i }
  A[1] = 2
}
`, 2, nil)
	// serial + doall + serial = 3 epochs (entry/exit are structural).
	if r.epoch != 3 {
		t.Fatalf("epochs = %d, want 3", r.epoch)
	}
}

func TestEpochCountLoop(t *testing.T) {
	// Three doall instances; headers, body-entry joins, entry and exit
	// are structural and free.
	_, r := runOracle(t, `
program p
param n = 4
array A[n]
proc main() {
  for t = 0 to 2 {
    doall i = 0 to n-1 { A[i] = t }
  }
}
`, 2, nil)
	if r.epoch != 3 {
		t.Fatalf("epochs = %d, want 3", r.epoch)
	}
}

func TestEpochCountCall(t *testing.T) {
	// call prologue (1) + the callee's doall (1) = 2 epochs.
	_, r := runOracle(t, `
program p
param n = 4
array A[n]
proc main() {
  call f(A)
}
proc f(X[]) {
  doall i = 0 to n-1 { X[i] = i }
}
`, 2, nil)
	if r.epoch != 2 {
		t.Fatalf("epochs = %d, want 2", r.epoch)
	}
}

func TestSerialLoopSemantics(t *testing.T) {
	src := `
program p
scalar acc = 0.0
array A[8]
proc main() {
  for i = 0 to 7 { A[i] = i }
  for i = 7 to 0 step -2 { acc = acc + A[i] }
  for i = 5 to 3 { acc = acc + 100.0 }   # zero iterations
}
`
	p, m := compileSrc(t, src)
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 1
	sys := memsys.NewOracle(cfg, p.MemWords)
	if _, err := newRunner(t, p, m, sys, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	// 7 + 5 + 3 + 1 = 16; the empty loop adds nothing.
	if got := scalarVal(t, p, sys, "acc"); got != 16 {
		t.Fatalf("acc = %v, want 16", got)
	}
}

func TestLoopWithBoundaryAndStep(t *testing.T) {
	src := `
program p
param n = 8
scalar acc = 0.0
array A[n]
proc main() {
  doall i = 0 to n-1 { A[i] = i }
  for t = 0 to 6 step 3 {
    doall i = 0 to n-1 { A[i] = A[i] + 1.0 }
  }
  doall i = 0 to n-1 {
    critical { acc = acc + A[i] }
  }
}
`
	p, m := compileSrc(t, src)
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 4
	sys := memsys.NewOracle(cfg, p.MemWords)
	if _, err := newRunner(t, p, m, sys, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	// A[i] = i + 3 (t = 0, 3, 6); sum = 28 + 24 = 52.
	if got := scalarVal(t, p, sys, "acc"); got != 52 {
		t.Fatalf("acc = %v, want 52", got)
	}
}

func TestParallelSpeedup(t *testing.T) {
	src := `
program p
param n = 64
array A[n]
array B[n]
proc main() {
  doall i = 0 to n-1 { A[i] = i }
  doall i = 0 to n-1 {
    for k = 0 to 63 { B[i] = B[i] + A[i] * 0.5 }
  }
}
`
	cycles := map[int]int64{}
	for _, procs := range []int{1, 4, 16} {
		p, m := compileSrc(t, src)
		cfg := machine.Default(machine.SchemeBase)
		cfg.Procs = procs
		sys := memsys.NewOracle(cfg, p.MemWords)
		st, err := newRunner(t, p, m, sys, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		cycles[procs] = st.Cycles
	}
	if !(cycles[1] > 3*cycles[4] && cycles[4] > 2*cycles[16]) {
		t.Fatalf("no parallel speedup: %v", cycles)
	}
}

func TestBlockVsCyclicBalance(t *testing.T) {
	// Triangular work: iteration i does i inner steps. Block scheduling
	// gives the last processor the heavy half; cyclic spreads it.
	src := `
program p
param n = 64
array A[n]
proc main() {
  doall i = 0 to n-1 {
    for k = 1 to i { A[i] = A[i] + 1.0 }
  }
}
`
	run := func(cyclic bool) int64 {
		p, m := compileSrc(t, src)
		cfg := machine.Default(machine.SchemeBase)
		cfg.Procs = 8
		cfg.CyclicSched = cyclic
		sys := memsys.NewOracle(cfg, p.MemWords)
		st, err := newRunner(t, p, m, sys, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	block, cyclic := run(false), run(true)
	if !(cyclic < block) {
		t.Fatalf("cyclic (%d) should beat block (%d) on triangular work", cyclic, block)
	}
}

func TestCriticalSectionCost(t *testing.T) {
	with := `
program p
param n = 16
scalar s
array A[n]
proc main() {
  doall i = 0 to n-1 { critical { s = s + 1.0 } A[i] = 0.0 }
}
`
	without := `
program p
param n = 16
scalar s
array A[n]
proc main() {
  doall i = 0 to n-1 { A[i] = 0.0 }
}
`
	run := func(src string) int64 {
		p, m := compileSrc(t, src)
		cfg := machine.Default(machine.SchemeBase)
		cfg.Procs = 4
		sys := memsys.NewOracle(cfg, p.MemWords)
		st, err := newRunner(t, p, m, sys, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	if !(run(with) > run(without)) {
		t.Fatal("critical sections must cost lock cycles")
	}
}

func TestMaxEpochsGuard(t *testing.T) {
	src := `
program p
param n = 4
array A[n]
proc main() {
  for t = 0 to 100000 {
    doall i = 0 to n-1 { A[i] = t }
  }
}
`
	p, m := compileSrc(t, src)
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 2
	cfg.MaxEpochs = 100
	sys := memsys.NewOracle(cfg, p.MemWords)
	_, err := newRunner(t, p, m, sys, cfg).Run()
	if err == nil || !strings.Contains(err.Error(), "epoch limit") {
		t.Fatalf("want epoch-limit error, got %v", err)
	}
}

func TestSubscriptOutOfRangeIsError(t *testing.T) {
	src := `
program p
param n = 4
scalar k = 9.0
array A[n]
proc main() {
  doall i = 0 to n-1 { A[i] = 0.0 }
  A[0] = A[k]
}
`
	p, m := compileSrc(t, src)
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 1
	sys := memsys.NewOracle(cfg, p.MemWords)
	_, err := newRunner(t, p, m, sys, cfg).Run()
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want subscript error, got %v", err)
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	// The right operand of && must not evaluate when the left is false:
	// here it would index out of range.
	src := `
program p
param n = 4
scalar flag = 0.0
scalar r = 0.0
array A[n]
proc main() {
  A[0] = 1.0
  if (flag > 0.5 && A[9] > 0.0) {
    r = 1.0
  } else {
    r = 2.0
  }
}
`
	p, m := compileSrc(t, src)
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 1
	sys := memsys.NewOracle(cfg, p.MemWords)
	if _, err := newRunner(t, p, m, sys, cfg).Run(); err != nil {
		t.Fatalf("short-circuit failed: %v", err)
	}
	if got := scalarVal(t, p, sys, "r"); got != 2.0 {
		t.Fatalf("r = %v, want 2", got)
	}
}

func TestDivisionByZeroIsError(t *testing.T) {
	src := `
program p
scalar z = 0.0
scalar r
proc main() {
  r = 1.0 / z
}
`
	p, m := compileSrc(t, src)
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 1
	sys := memsys.NewOracle(cfg, p.MemWords)
	if _, err := newRunner(t, p, m, sys, cfg).Run(); err == nil {
		t.Fatal("want division-by-zero error")
	}
}

func TestModuloSemantics(t *testing.T) {
	// % must be non-negative for subscript safety: (-3) % 4 == 1 here.
	src := `
program p
param n = 4
scalar r
array A[n]
proc main() {
  A[1] = 42.0
  A[0] = A[(0 - 3) % n]
  r = A[0]
}
`
	p, m := compileSrc(t, src)
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 1
	sys := memsys.NewOracle(cfg, p.MemWords)
	if _, err := newRunner(t, p, m, sys, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	if got := scalarVal(t, p, sys, "r"); got != 42 {
		t.Fatalf("r = %v, want 42 (euclidean modulo)", got)
	}
}

func TestTraceOutput(t *testing.T) {
	src := `
program p
param n = 4
array A[n]
proc main() {
  doall i = 0 to n-1 { A[i] = i }
  A[0] = A[1] + A[2]
}
`
	p, m := compileSrc(t, src)
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 2
	sys := memsys.NewOracle(cfg, p.MemWords)
	r := newRunner(t, p, m, sys, cfg)
	var buf bytes.Buffer
	meta := obs.Meta{Procs: cfg.Procs, MemWords: p.MemWords, Refs: make([]obs.RefInfo, p.Info.NumRefs)}
	rec, err := obs.NewRecorder(obs.LevelTrace, meta, &buf)
	if err != nil {
		t.Fatal(err)
	}
	r.SetObserver(rec)
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Finish(st); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var epochs, reads, writes int
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Op {
		case obs.OpEpoch:
			epochs++
		case obs.OpRead:
			reads++
		case obs.OpWrite:
			writes++
		case obs.OpEnd:
		default:
			t.Fatalf("unexpected trace event %v", ev.Op)
		}
	}
	if int64(epochs) != st.Epochs {
		t.Errorf("trace epochs %d != stats %d", epochs, st.Epochs)
	}
	if int64(reads) != st.Reads || int64(writes) != st.Writes {
		t.Errorf("trace refs %d/%d != stats %d/%d", reads, writes, st.Reads, st.Writes)
	}
}

func TestDoallBoundsReadThroughMemory(t *testing.T) {
	// The scheduler evaluates doall bounds; array refs in them are real
	// memory reads and must appear in the stats.
	src := `
program p
param n = 8
array LIM[2]
array A[n]
proc main() {
  LIM[0] = 1
  LIM[1] = 6
  doall i = LIM[0] to LIM[1] { A[i] = i }
}
`
	p, m := compileSrc(t, src)
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 2
	sys := memsys.NewOracle(cfg, p.MemWords)
	st, err := newRunner(t, p, m, sys, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 2 {
		t.Fatalf("bound reads = %d, want 2", st.Reads)
	}
	// A[1..6] written: 6 writes + 2 LIM writes.
	if st.Writes != 8 {
		t.Fatalf("writes = %d, want 8", st.Writes)
	}
}

func TestMigrateSerialRotates(t *testing.T) {
	// With migration, consecutive serial epochs run on different
	// processors; observable through per-processor busy cycles.
	src := `
program p
param n = 4
array A[n]
proc main() {
  A[0] = 1
  doall i = 0 to n-1 { A[i] = i }
  A[1] = 2
  doall i = 0 to n-1 { A[i] = i + 1 }
  A[2] = 3
}
`
	p, m := compileSrc(t, src)
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 4
	cfg.MigrateSerial = true
	sys := memsys.NewOracle(cfg, p.MemWords)
	st, err := newRunner(t, p, m, sys, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	busyProcs := 0
	for _, b := range st.ProcBusy {
		if b > 0 {
			busyProcs++
		}
	}
	if busyProcs < 3 {
		t.Fatalf("serial work landed on %d processors, want >= 3 with migration", busyProcs)
	}
}
