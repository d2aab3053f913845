package vc

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/pfl"
	"repro/internal/prog"
	"repro/internal/stats"
)

func buildProg(t *testing.T) *prog.Prog {
	t.Helper()
	ast, err := pfl.Parse(`
program p
param n = 16
scalar s
array A[n]
array B[n]
proc main() { A[0] = s  B[0] = A[0] }
`)
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
	return p
}

func newSys(t *testing.T) (*System, *prog.Prog) {
	t.Helper()
	p := buildProg(t)
	cfg := machine.Default(machine.SchemeVC)
	cfg.Procs = 2
	cfg.CacheWords = 64
	return New(cfg, p), p
}

// barrier ends the current epoch the way the simulator does: report the
// epoch's modified variables, merge the buffered lanes (VC runs
// always-buffered), and enter the next epoch. Counters in s.St and
// values in memory are only current after a barrier.
func barrier(s *System, mods []string, next int64) {
	if mods != nil {
		vars := make([]int, len(mods))
		for i, n := range mods {
			vars[i] = s.prog.VarIndex[n]
		}
		s.EpochMods(vars)
	}
	s.FlushEpoch()
	s.EpochBoundary(next)
}

func TestVersionHitAndAging(t *testing.T) {
	s, p := newSys(t)
	a := p.Arrays["A"]
	s.EpochBoundary(1)
	s.Write(0, a.Base, 1.5, false) // BVN = CVN+1 = 1

	// same variable unmodified across the boundary: still a hit
	barrier(s, []string{"A"}, 2) // the write's epoch modified A: CVN -> 1
	v, lat := s.Read(0, a.Base, memsys.ReadRegular, 0)
	if v != 1.5 || lat != s.Cfg.HitCycles {
		t.Fatalf("own write should still hit: v=%v lat=%d", v, lat)
	}

	// another epoch modifies A ANYWHERE: every cached element of A ages
	s.Write(1, a.Base+5, 9.0, false)
	barrier(s, []string{"A"}, 3) // CVN -> 2
	misses := s.St.TotalReadMisses()
	v, _ = s.Read(0, a.Base, memsys.ReadRegular, 0)
	s.FlushEpoch() // merge the read's lane counters for the checks below
	if v != 1.5 {
		t.Fatalf("refetched value = %v", v)
	}
	if s.St.TotalReadMisses() != misses+1 {
		t.Fatal("aged version must miss")
	}
	// word a.Base was NOT actually rewritten: conservative miss (the
	// per-variable granularity at work — TPI would have hit here).
	if s.St.ReadMisses[stats.MissConservative] != 1 {
		t.Fatalf("conservative misses = %v", s.St.ReadMisses)
	}
}

func TestUnmodifiedVariableKeepsLocality(t *testing.T) {
	s, p := newSys(t)
	b := p.Arrays["B"]
	s.EpochBoundary(1)
	s.Read(0, b.Base, memsys.ReadRegular, 0) // fill, BVN = 0
	// many epochs pass; B never modified
	for e := int64(2); e < 10; e++ {
		barrier(s, []string{"A"}, e)
	}
	_, lat := s.Read(0, b.Base, memsys.ReadRegular, 0)
	if lat != s.Cfg.HitCycles {
		t.Fatal("unmodified variable must stay cached (VC's advantage over SC)")
	}
}

func TestPerVariableGranularity(t *testing.T) {
	s, p := newSys(t)
	a, b := p.Arrays["A"], p.Arrays["B"]
	s.EpochBoundary(1)
	s.Read(0, a.Base, memsys.ReadRegular, 0)
	s.Read(0, b.Base, memsys.ReadRegular, 0)
	barrier(s, []string{"A"}, 2) // only A modified
	if _, lat := s.Read(0, b.Base, memsys.ReadRegular, 0); lat != s.Cfg.HitCycles {
		t.Fatal("B must still hit: only A was modified")
	}
	if s.CVN("A") != 1 || s.CVN("B") != 0 {
		t.Fatalf("CVNs: A=%d B=%d", s.CVN("A"), s.CVN("B"))
	}
}

func TestTrueSharingDetected(t *testing.T) {
	s, p := newSys(t)
	a := p.Arrays["A"]
	s.EpochBoundary(1)
	s.Read(0, a.Base, memsys.ReadRegular, 0) // P0 caches old value
	s.Write(1, a.Base, 7.0, false)           // P1 rewrites the same word
	barrier(s, []string{"A"}, 2)
	v, _ := s.Read(0, a.Base, memsys.ReadRegular, 0)
	s.FlushEpoch()
	if v != 7.0 {
		t.Fatalf("read %v, want 7.0", v)
	}
	if s.St.ReadMisses[stats.MissTrueSharing] != 1 {
		t.Fatalf("true-sharing misses = %v", s.St.ReadMisses)
	}
}

func TestScalarVersioning(t *testing.T) {
	s, p := newSys(t)
	sc := p.Scalars["s"]
	s.EpochBoundary(1)
	s.Write(0, sc.Addr, 3.0, false)
	barrier(s, []string{"s"}, 2)
	if v, lat := s.Read(0, sc.Addr, memsys.ReadRegular, 0); v != 3.0 || lat != s.Cfg.HitCycles {
		t.Fatalf("own scalar write must hit next epoch: v=%v lat=%d", v, lat)
	}
	if s.CVN("nope") != -1 {
		t.Fatal("unknown variable CVN must be -1")
	}
}

func TestCriticalWritesSelfInvalidate(t *testing.T) {
	s, p := newSys(t)
	sc := p.Scalars["s"]
	s.EpochBoundary(1)
	s.Write(0, sc.Addr, 1.0, false)
	s.Write(0, sc.Addr, 2.0, true)
	// The critical store is eager and withdraws the buffered regular
	// store; a same-epoch bypass read sees it immediately.
	v, _ := s.Read(0, sc.Addr, memsys.ReadBypass, 0)
	if v != 2.0 {
		t.Fatalf("bypass read = %v", v)
	}
}

// TestBufferedDeferralUntilBarrier pins the always-buffered model: a
// regular store is invisible to other processors' bypass reads until
// the lanes merge at the barrier.
func TestBufferedDeferralUntilBarrier(t *testing.T) {
	s, p := newSys(t)
	a := p.Arrays["A"]
	s.EpochBoundary(1)
	s.Write(0, a.Base, 5.0, false)
	if v, _ := s.Read(1, a.Base, memsys.ReadBypass, 0); v != 0 {
		t.Fatalf("mid-epoch cross-processor bypass read = %v, want pre-epoch 0", v)
	}
	barrier(s, []string{"A"}, 2)
	if v, _ := s.Read(1, a.Base, memsys.ReadBypass, 0); v != 5.0 {
		t.Fatalf("post-barrier bypass read = %v, want 5.0", v)
	}
}
