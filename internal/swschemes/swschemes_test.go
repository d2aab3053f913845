package swschemes

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/stats"
)

func baseCfg(s machine.Scheme) machine.Config {
	c := machine.Default(s)
	c.Procs = 2
	c.CacheWords = 64
	return c
}

func TestBaseNeverCaches(t *testing.T) {
	s := NewBase(baseCfg(machine.SchemeBase), 256)
	s.EpochBoundary(1)
	s.Write(0, 10, 2.5, false)
	for i := 0; i < 5; i++ {
		v, lat := s.Read(0, 10, memsys.ReadRegular, 0)
		if v != 2.5 {
			t.Fatalf("read %d = %v", i, v)
		}
		if lat <= s.Cfg.HitCycles {
			t.Fatal("BASE reads are always remote")
		}
	}
	if s.St.ReadHits != 0 {
		t.Fatal("BASE must record no hits")
	}
	if s.St.ReadMisses[stats.MissBypass] != 5 {
		t.Fatalf("bypass misses = %d, want 5", s.St.ReadMisses[stats.MissBypass])
	}
	if s.St.ReadTrafficWords != 5 || s.St.WriteTrafficWords != 1 {
		t.Fatalf("traffic = %d/%d", s.St.ReadTrafficWords, s.St.WriteTrafficWords)
	}
	if s.Caches() != nil {
		t.Fatal("BASE must build no caches")
	}
}

func TestSCRegularReadsCache(t *testing.T) {
	s := NewSC(baseCfg(machine.SchemeSC), 256)
	s.EpochBoundary(1)
	s.Memory.InitWord(8, 4.5)
	if v, _ := s.Read(0, 8, memsys.ReadRegular, 0); v != 4.5 {
		t.Fatal("miss fill")
	}
	v, lat := s.Read(0, 8, memsys.ReadRegular, 0)
	if v != 4.5 || lat != s.Cfg.HitCycles {
		t.Fatalf("regular re-read must hit: v=%v lat=%d", v, lat)
	}
	// spatial locality: the fill brought the whole line, so a neighbour
	// word hits at hit latency with the line's fill-time contents.
	if v, lat := s.Read(0, 9, memsys.ReadRegular, 0); v != 0 || lat != s.Cfg.HitCycles {
		t.Fatalf("neighbour read v=%v lat=%d (want cached 0, hit)", v, lat)
	}
}

func TestSCTimeReadsBypass(t *testing.T) {
	s := NewSC(baseCfg(machine.SchemeSC), 256)
	s.EpochBoundary(1)
	s.Write(0, 16, 1.0, false) // cached
	s.Memory.Write(16, 9.0, 1, 1)
	v, lat := s.Read(0, 16, memsys.ReadTime, 5)
	if v != 9.0 {
		t.Fatalf("bypass read = %v, want memory value 9.0", v)
	}
	if lat <= s.Cfg.HitCycles {
		t.Fatal("bypass always pays the remote latency")
	}
	// ... and refreshes the stale cached copy in place so later covered
	// (regular) reads are sound.
	v, lat = s.Read(0, 16, memsys.ReadRegular, 0)
	if v != 9.0 || lat != s.Cfg.HitCycles {
		t.Fatalf("covered read after bypass: v=%v lat=%d", v, lat)
	}
}

func TestSCCriticalWriteSelfInvalidates(t *testing.T) {
	s := NewSC(baseCfg(machine.SchemeSC), 256)
	s.EpochBoundary(1)
	s.Write(0, 24, 1.0, false)
	s.Write(0, 24, 2.0, true)
	if line, w, ok := s.Caches()[0].Lookup(24); ok && line.ValidWord(w) {
		t.Fatal("critical store must drop the writer's cached word")
	}
	if s.Memory.Read(24) != 2.0 {
		t.Fatal("critical store must reach memory")
	}
}

func TestSCWriteCoalescing(t *testing.T) {
	s := NewSC(baseCfg(machine.SchemeSC), 256)
	s.EpochBoundary(1)
	for i := 0; i < 4; i++ {
		s.Write(0, 32, float64(i), false)
	}
	if s.St.WriteTrafficWords != 1 || s.St.WritesCoalesced != 3 {
		t.Fatalf("traffic=%d coalesced=%d", s.St.WriteTrafficWords, s.St.WritesCoalesced)
	}
}

func TestSchemeNames(t *testing.T) {
	if NewBase(baseCfg(machine.SchemeBase), 64).Name() != "BASE" {
		t.Fatal("BASE name")
	}
	if NewSC(baseCfg(machine.SchemeSC), 64).Name() != "SC" {
		t.Fatal("SC name")
	}
}
