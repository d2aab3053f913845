package tpi

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/memsys"
)

func cfg2L() machine.Config {
	c := machine.Default(machine.SchemeTPI)
	c.Procs = 2
	c.CacheWords = 256
	c.L1Words = 32
	c.LineWords = 4
	return c
}

func newTwoLevel(t *testing.T) *TwoLevel {
	t.Helper()
	c := cfg2L()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewTwoLevel(c, 512)
}

func TestL1HitPath(t *testing.T) {
	s := newTwoLevel(t)
	s.EpochBoundary(1)
	s.Memory.InitWord(8, 2.5)
	// first regular read: L1 miss, L2 miss -> fill both
	if _, lat := s.Read(0, 8, memsys.ReadRegular, 0); lat <= s.Cfg.L2HitCycles {
		t.Fatalf("first read should be a full miss, lat=%d", lat)
	}
	// second regular read: on-chip hit at L1 latency
	v, lat := s.Read(0, 8, memsys.ReadRegular, 0)
	if v != 2.5 || lat != s.Cfg.L1HitCycles {
		t.Fatalf("L1 hit: v=%v lat=%d", v, lat)
	}
	if s.St.L1Hits != 1 {
		t.Fatalf("L1Hits = %d", s.St.L1Hits)
	}
}

func TestTimeReadBypassesL1(t *testing.T) {
	s := newTwoLevel(t)
	s.EpochBoundary(1)
	s.Write(0, 16, 1.0, false) // populates L2 (write-through) but not L1
	s.Read(0, 16, memsys.ReadRegular, 0)
	// The word now sits in L1. A Time-Read must NOT take the 1-cycle L1
	// path: the compiled sequence invalidates the L1 word and revalidates
	// against the L2 timetags (L2HitCycles when the window passes).
	s.EpochBoundary(2)
	v, lat := s.Read(0, 16, memsys.ReadTime, 1)
	if v != 1.0 {
		t.Fatalf("value = %v", v)
	}
	if lat != s.Cfg.L2HitCycles {
		t.Fatalf("Time-Read latency = %d, want L2 hit %d", lat, s.Cfg.L2HitCycles)
	}
	if s.St.TimeReadL1Invalidations == 0 {
		t.Fatal("Time-Read must invalidate the on-chip copy")
	}
}

func TestL1NeverServesStaleData(t *testing.T) {
	s := newTwoLevel(t)
	s.EpochBoundary(1)
	s.Write(0, 24, 1.0, false)
	s.Read(0, 24, memsys.ReadRegular, 0) // L1 holds 1.0
	s.EpochBoundary(2)
	s.Write(1, 24, 9.0, false) // another processor rewrites the word
	s.EpochBoundary(3)
	// The compiler would mark this read Time-Read(1); the L1 copy is
	// stale but cannot be consulted.
	v, _ := s.Read(0, 24, memsys.ReadTime, 1)
	if v != 9.0 {
		t.Fatalf("stale on-chip data served: %v", v)
	}
	// The refill updated L1; a covered (regular) read now hits on-chip
	// with the fresh value.
	v, lat := s.Read(0, 24, memsys.ReadRegular, 0)
	if v != 9.0 || lat != s.Cfg.L1HitCycles {
		t.Fatalf("post-refill L1 read: v=%v lat=%d", v, lat)
	}
}

func TestCriticalWriteInvalidatesL1Word(t *testing.T) {
	s := newTwoLevel(t)
	s.EpochBoundary(1)
	s.Write(0, 32, 1.0, false)
	s.Read(0, 32, memsys.ReadRegular, 0) // into L1
	s.Write(0, 32, 2.0, true)            // critical store
	if f, w, ok := s.l1[0].Lookup(32); ok && s.l1[0].ValidWord(f, w) {
		t.Fatal("critical store must drop the L1 word")
	}
	if v, _ := s.Read(0, 32, memsys.ReadBypass, 0); v != 2.0 {
		t.Fatal("memory must hold the critical store")
	}
}

func TestWriteThroughUpdatesL1(t *testing.T) {
	s := newTwoLevel(t)
	s.EpochBoundary(1)
	s.Memory.InitWord(40, 5.0)
	s.Read(0, 40, memsys.ReadRegular, 0) // L1 holds 5.0
	s.Write(0, 40, 6.0, false)
	v, lat := s.Read(0, 40, memsys.ReadRegular, 0)
	if v != 6.0 || lat != s.Cfg.L1HitCycles {
		t.Fatalf("L1 after write-through: v=%v lat=%d", v, lat)
	}
}

func TestNameAndStats(t *testing.T) {
	s := newTwoLevel(t)
	if s.Name() != "TPI2L" {
		t.Fatal("name")
	}
	s.EpochBoundary(1)
	s.Read(0, 0, memsys.ReadRegular, 0)
	if s.St.Reads != 1 {
		t.Fatalf("reads double counted: %d", s.St.Reads)
	}
}
