package tpi

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/stats"
)

func cfg() machine.Config {
	c := machine.Default(machine.SchemeTPI)
	c.Procs = 2
	c.CacheWords = 64
	c.LineWords = 4
	return c
}

func newSys(t *testing.T, c machine.Config) *System {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(c, 256)
}

func TestTimeReadWindowSemantics(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Write(0, 10, 3.5, false) // P0 caches word 10 with tt=1

	// epoch 2: window 1 covers a write at epoch 1 -> hit
	s.EpochBoundary(2)
	v, lat := s.Read(0, 10, memsys.ReadTime, 1)
	if v != 3.5 || lat != s.Cfg.HitCycles {
		t.Fatalf("window-1 hit: v=%v lat=%d", v, lat)
	}

	// the hit promoted tt to 2; at epoch 4 a window-1 read needs tt >= 3:
	// must miss conservatively (data unchanged).
	s.EpochBoundary(3)
	s.EpochBoundary(4)
	before := s.St.ReadMisses[stats.MissConservative]
	v, lat = s.Read(0, 10, memsys.ReadTime, 1)
	if v != 3.5 {
		t.Fatalf("value after refetch = %v", v)
	}
	if lat <= s.Cfg.HitCycles {
		t.Fatal("window failure must pay miss latency")
	}
	if s.St.ReadMisses[stats.MissConservative] != before+1 {
		t.Fatal("unchanged data failing the window is a conservative miss")
	}
}

func TestTrueSharingClassification(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Write(0, 10, 1.0, false) // P0 caches word 10 (tt=1)
	s.EpochBoundary(2)
	s.Write(1, 10, 2.0, false) // P1 overwrites in epoch 2
	s.EpochBoundary(3)
	v, _ := s.Read(0, 10, memsys.ReadTime, 1)
	if v != 2.0 {
		t.Fatalf("read stale value %v", v)
	}
	if s.St.ReadMisses[stats.MissTrueSharing] != 1 {
		t.Fatalf("miss should be true sharing: %+v", s.St.ReadMisses)
	}
}

func TestRegularReadIgnoresAge(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Write(0, 10, 7.0, false)
	for e := int64(2); e < 20; e++ {
		s.EpochBoundary(e)
	}
	v, lat := s.Read(0, 10, memsys.ReadRegular, 0)
	if v != 7.0 || lat != s.Cfg.HitCycles {
		t.Fatalf("regular read of old-but-fresh copy must hit: v=%v lat=%d", v, lat)
	}
}

func TestFillNeighbourRule(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(5)
	// Miss on word 8 fills the line 8..11.
	s.Read(0, 8, memsys.ReadRegular, 0)
	cc := s.Caches()[0]
	f, w, ok := cc.Lookup(8)
	if !ok || !cc.ValidWord(f, w) {
		t.Fatal("fill failed")
	}
	if cc.TT(f, 0) != 5 {
		t.Fatalf("accessed word tt = %d, want 5", cc.TT(f, 0))
	}
	for i := 1; i < 4; i++ {
		if cc.TT(f, i) != 4 {
			t.Fatalf("neighbour word %d tt = %d, want E-1 = 4", i, cc.TT(f, i))
		}
	}
	// Consequence: a window-0 Time-Read of a neighbour must MISS even
	// though the word is valid (it may have been written by another task
	// this epoch before our fill).
	misses := s.St.TotalReadMisses()
	s.Read(0, 9, memsys.ReadTime, 0)
	if s.St.TotalReadMisses() != misses+1 {
		t.Fatal("window-0 Time-Read of a neighbour-filled word must miss")
	}
}

func TestWriteValidateAllocation(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Write(0, 20, 1.25, false)
	cc := s.Caches()[0]
	f, w, ok := cc.Lookup(20)
	if !ok || !cc.ValidWord(f, w) {
		t.Fatal("write must allocate the written word")
	}
	// neighbours must NOT be validated (no fetch-on-write)
	for i := 0; i < 4; i++ {
		if i != w && cc.TT(f, i) != cache.TTInvalid {
			t.Fatalf("write-validate must not validate neighbour %d", i)
		}
	}
	if s.St.ReadTrafficWords != 0 {
		t.Fatal("write allocation must not generate read traffic")
	}
}

func TestWriteBufferCoalescingTraffic(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	for i := 0; i < 10; i++ {
		s.Write(0, 30, float64(i), false)
	}
	if s.St.WriteTrafficWords != 1 || s.St.WritesCoalesced != 9 {
		t.Fatalf("traffic=%d coalesced=%d, want 1/9", s.St.WriteTrafficWords, s.St.WritesCoalesced)
	}
	// Epoch boundary flushes: next write to the same word is new traffic.
	s.EpochBoundary(2)
	s.Write(0, 30, 99, false)
	if s.St.WriteTrafficWords != 2 {
		t.Fatalf("post-flush traffic = %d, want 2", s.St.WriteTrafficWords)
	}

	// Plain buffer never coalesces.
	c2 := cfg()
	c2.WriteBufferCache = false
	s2 := newSys(t, c2)
	s2.EpochBoundary(1)
	for i := 0; i < 10; i++ {
		s2.Write(0, 30, float64(i), false)
	}
	if s2.St.WriteTrafficWords != 10 {
		t.Fatalf("plain buffer traffic = %d, want 10", s2.St.WriteTrafficWords)
	}
}

func TestCriticalWriteSelfInvalidates(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Write(0, 40, 1.0, false) // cached copy
	s.Write(0, 40, 2.0, true)  // critical store
	cc := s.Caches()[0]
	f, w, ok := cc.Lookup(40)
	if ok && cc.ValidWord(f, w) {
		t.Fatal("critical store must invalidate the writer's own copy")
	}
	if v := s.Memory.Read(40); v != 2.0 {
		t.Fatalf("memory = %v, want 2.0", v)
	}
	// A window-1 Time-Read by another processor with an old copy must
	// miss and see the new value.
	s.Write(1, 40, 0.5, false) // stale-path: P1 writes then P0 critical-writes
	s.Write(0, 40, 3.0, true)
	v, _ := s.Read(1, 40, memsys.ReadBypass, 0)
	if v != 3.0 {
		t.Fatalf("bypass read = %v, want 3.0", v)
	}
}

func TestBypassReadRefreshesCachedCopy(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Write(0, 50, 1.0, false)    // P0 caches 1.0
	s.Memory.Write(50, 9.0, 1, 1) // P1 writes behind P0's back (critical path)
	v, _ := s.Read(0, 50, memsys.ReadBypass, 0)
	if v != 9.0 {
		t.Fatalf("bypass must fetch memory value, got %v", v)
	}
	cc := s.Caches()[0]
	f, w, _ := cc.Lookup(50)
	if cc.Val(f, w) != 9.0 {
		t.Fatal("bypass read must refresh the cached value in place")
	}
}

func TestTwoPhaseResetDropsOnlyOutOfPhase(t *testing.T) {
	c := cfg()
	c.TimetagBits = 3 // phase = 4
	s := newSys(t, c)
	s.EpochBoundary(1)
	s.Write(0, 0, 1.0, false) // tt=1 (out of phase at E=4: 1 <= 0? cut = 4-4 = 0 -> survives)
	s.EpochBoundary(2)
	s.Write(0, 8, 2.0, false) // tt=2
	s.EpochBoundary(3)
	s.EpochBoundary(4) // reset with cut=0: everything survives
	if s.St.TimetagResets != 1 {
		t.Fatalf("resets = %d, want 1", s.St.TimetagResets)
	}
	if s.St.ResetInvalidations != 0 {
		t.Fatalf("cut=0 reset dropped %d words", s.St.ResetInvalidations)
	}
	s.EpochBoundary(5)
	s.Write(0, 16, 3.0, false) // tt=5
	s.EpochBoundary(6)
	s.EpochBoundary(7)
	s.EpochBoundary(8) // reset with cut=4: words with tt<=4 drop (tt=1, tt=2)
	if s.St.ResetInvalidations != 2 {
		t.Fatalf("reset invalidations = %d, want 2", s.St.ResetInvalidations)
	}
	cc := s.Caches()[0]
	if f, w, ok := cc.Lookup(16); !ok || !cc.ValidWord(f, w) {
		t.Fatal("in-phase word must survive the reset")
	}
	if f, w, ok := cc.Lookup(0); ok && cc.ValidWord(f, w) {
		t.Fatal("out-of-phase word must be invalidated")
	}
	// the reset stall is reported to the caller
	if stall := s.EpochBoundary(12); stall != s.Cfg.ResetCycles {
		t.Fatalf("reset stall = %d, want %d", stall, s.Cfg.ResetCycles)
	}
}

func TestFlashResetDropsEverything(t *testing.T) {
	c := cfg()
	c.TimetagBits = 3 // phase 4, flash period 8
	c.FlashReset = true
	s := newSys(t, c)
	s.EpochBoundary(7)
	s.Write(0, 0, 1.0, false)
	s.Write(0, 16, 2.0, false)
	s.EpochBoundary(8) // flash
	if s.St.ResetInvalidations != 2 {
		t.Fatalf("flash dropped %d words, want 2", s.St.ResetInvalidations)
	}
	cc := s.Caches()[0]
	if _, _, ok := cc.Lookup(0); ok {
		t.Fatal("flash reset must empty the cache")
	}
}

func TestWindowCappedByTimetagWidth(t *testing.T) {
	c := cfg()
	c.TimetagBits = 3 // MaxWindow = 6
	s := newSys(t, c)
	s.EpochBoundary(1)
	s.Write(0, 0, 1.0, false) // tt=1
	s.EpochBoundary(2)
	s.EpochBoundary(3)
	// At epoch 3, an absurdly wide compiler window must be capped to 6:
	// tt=1 >= 3-6 -> still a hit here; push further.
	for e := int64(4); e <= 3+7; e++ {
		s.EpochBoundary(e)
	}
	// Now E=10, tt would need >= 10-6=4 > 1 -> miss even with window 1000.
	// (The word may already have been reset-invalidated, which also
	// forces the miss — either path is the hardware limit in action.)
	hits := s.St.ReadHits
	s.Read(0, 0, memsys.ReadTime, 1000)
	if s.St.ReadHits != hits {
		t.Fatal("window beyond timetag capacity must not hit")
	}
}

func TestEvictionClassifiedAsReplacement(t *testing.T) {
	s := newSys(t, cfg()) // 64-word cache, 16 lines, direct-mapped
	s.EpochBoundary(1)
	s.Read(0, 0, memsys.ReadRegular, 0)  // fill line 0
	s.Read(0, 64, memsys.ReadRegular, 0) // conflicts with line 0 (16 sets)
	s.Read(0, 0, memsys.ReadRegular, 0)  // back: replacement miss
	if s.St.ReadMisses[stats.MissReplace] != 1 {
		t.Fatalf("replacement misses = %d, want 1 (%v)", s.St.ReadMisses[stats.MissReplace], s.St.ReadMisses)
	}
}
