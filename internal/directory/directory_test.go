package directory

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/stats"
)

func cfg() machine.Config {
	c := machine.Default(machine.SchemeHW)
	c.Procs = 4
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

// barrier ends the current epoch (lane merge + directory replay), checks
// the protocol invariants — they only hold at barriers — and enters the
// next epoch. Counters in s.St are only current after a barrier.
func barrier(t *testing.T, s *System, next int64) {
	t.Helper()
	s.FlushEpoch()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s.EpochBoundary(next)
}

func TestReadSharedThenUpgrade(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	// Two readers share the line.
	s.Read(0, 8, memsys.ReadRegular, 0)
	s.Read(1, 8, memsys.ReadRegular, 0)
	barrier(t, s, 2)
	// P0 writes: the upgrade is eager locally, P1's invalidation replays
	// at the barrier.
	inv := s.St.Invalidations
	s.Write(0, 8, 42, false)
	barrier(t, s, 3)
	if s.St.Invalidations != inv+1 {
		t.Fatalf("invalidations = %d, want %d", s.St.Invalidations, inv+1)
	}
	// P1 re-reads: true-sharing miss (it had used the written word) and
	// sees the new value.
	v, _ := s.Read(1, 8, memsys.ReadRegular, 0)
	if v != 42 {
		t.Fatalf("read after invalidation = %v, want 42", v)
	}
	barrier(t, s, 4)
	if s.St.ReadMisses[stats.MissTrueSharing] != 1 {
		t.Fatalf("true-sharing misses = %d (%v)", s.St.ReadMisses[stats.MissTrueSharing], s.St.ReadMisses)
	}
}

func TestFalseSharingClassification(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Read(1, 9, memsys.ReadRegular, 0) // P1 uses word 9 of line 8..11
	barrier(t, s, 2)
	s.Write(0, 8, 1.0, false) // P0 writes word 8: P1 never used it
	barrier(t, s, 3)
	s.Read(1, 9, memsys.ReadRegular, 0)
	barrier(t, s, 4)
	if s.St.ReadMisses[stats.MissFalseSharing] != 1 {
		t.Fatalf("false-sharing misses = %d (%v)", s.St.ReadMisses[stats.MissFalseSharing], s.St.ReadMisses)
	}
}

func TestRemoteDirtyReadPaysExtraLatency(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	// P0 makes the line dirty-exclusive.
	s.Write(0, 16, 7.5, false)
	barrier(t, s, 2)
	// P1 read miss must fetch through the owner: compare with a clean miss.
	_, latDirty := s.Read(1, 16, memsys.ReadRegular, 0)
	_, latClean := s.Read(2, 32, memsys.ReadRegular, 0)
	if latDirty <= latClean {
		t.Fatalf("remote-dirty latency %d must exceed clean-miss latency %d", latDirty, latClean)
	}
	barrier(t, s, 3)
	// Owner's copy was downgraded at the barrier; both remain readable.
	v, _ := s.Read(0, 16, memsys.ReadRegular, 0)
	if v != 7.5 {
		t.Fatalf("owner copy = %v", v)
	}
	if v, _ := s.Read(1, 16, memsys.ReadRegular, 0); v != 7.5 {
		t.Fatalf("forwarded copy = %v", v)
	}
	barrier(t, s, 4)
}

func TestWritebackOnEviction(t *testing.T) {
	s := newSys(t, cfg()) // 64-word cache, direct-mapped: 16 sets
	s.EpochBoundary(1)
	s.Write(0, 0, 1.0, false) // dirty line at set 0
	barrier(t, s, 2)
	wt := s.St.WriteTrafficWords
	s.Read(0, 64, memsys.ReadRegular, 0) // conflicting fill evicts dirty line
	barrier(t, s, 3)
	if s.St.WriteTrafficWords != wt+int64(s.Cfg.LineWords) {
		t.Fatalf("eviction writeback traffic = %d, want +%d", s.St.WriteTrafficWords-wt, s.Cfg.LineWords)
	}
	// The value survives in memory.
	v, _ := s.Read(1, 0, memsys.ReadRegular, 0)
	if v != 1.0 {
		t.Fatalf("value after writeback = %v", v)
	}
}

func TestWriteMissInvalidatesAllSharers(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Read(1, 24, memsys.ReadRegular, 0)
	s.Read(2, 24, memsys.ReadRegular, 0)
	s.Read(3, 24, memsys.ReadRegular, 0)
	barrier(t, s, 2)
	s.Write(0, 24, 5.0, false) // write miss: all three sharers swept at the barrier
	barrier(t, s, 3)
	if s.St.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3", s.St.Invalidations)
	}
	for q := 1; q <= 3; q++ {
		if line, w, ok := cacheOf(s, q).Lookup(24); ok && line.ValidWord(w) {
			t.Fatalf("P%d still holds an invalidated line", q)
		}
	}
}

func TestExclusiveWriteHitIsSilent(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Write(0, 40, 1.0, false)
	barrier(t, s, 2)
	tr := s.St.TotalTraffic()
	msgs := s.St.CoherenceMsgs
	for i := 0; i < 10; i++ {
		s.Write(0, 40, float64(i), false)
	}
	barrier(t, s, 3)
	if s.St.TotalTraffic() != tr || s.St.CoherenceMsgs != msgs {
		t.Fatal("writes to an exclusive line must be free of traffic")
	}
}

func TestEpochBoundaryKeepsCacheContents(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Write(0, 48, 3.0, false)
	barrier(t, s, 2)
	hits := s.St.ReadHits
	v, _ := s.Read(0, 48, memsys.ReadRegular, 0)
	barrier(t, s, 3)
	if v != 3.0 || s.St.ReadHits != hits+1 {
		t.Fatal("write-back caches must keep dirty data across epochs")
	}
}

func TestUsedBitsResetOnRefill(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Read(1, 8, memsys.ReadRegular, 0) // P1 uses word 8
	barrier(t, s, 2)
	s.Write(0, 8, 1.0, false) // true-sharing invalidation for P1
	barrier(t, s, 3)
	s.Read(1, 10, memsys.ReadRegular, 0) // P1 refills the line, uses word 10 only
	barrier(t, s, 4)
	s.Write(0, 8, 2.0, false) // invalidation: word 8 not used since refill
	barrier(t, s, 5)
	_, tr := s.CacheOf(1)
	r, _ := tr.Lost(10)
	if r != cache.LostInvalFalse {
		t.Fatalf("second invalidation should be false sharing for P1, got %v", r)
	}
}

// TestDeferredInvalidationUntilBarrier pins the deferred model itself: a
// sharer keeps hitting its copy for the remainder of the epoch in which
// another processor claimed the line, and loses it exactly at the
// barrier.
func TestDeferredInvalidationUntilBarrier(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Read(1, 8, memsys.ReadRegular, 0)
	barrier(t, s, 2)
	s.Write(0, 8, 9.0, false)
	// Same epoch: P1 still hits its (now stale-to-be) copy — invalidations
	// deliver at the synchronization point, and P1's lane-visible value is
	// the pre-epoch one, which is exactly what a data-race-free program
	// may observe.
	if s.St.Invalidations != 0 {
		t.Fatalf("mid-epoch invalidations = %d, want 0", s.St.Invalidations)
	}
	if line, w, ok := cacheOf(s, 1).Lookup(8); !ok || !line.ValidWord(w) {
		t.Fatal("P1's copy must survive until the barrier")
	}
	barrier(t, s, 3)
	if s.St.Invalidations != 1 {
		t.Fatalf("post-barrier invalidations = %d, want 1", s.St.Invalidations)
	}
	if _, _, ok := cacheOf(s, 1).Lookup(8); ok {
		t.Fatal("P1's copy must be gone after the barrier")
	}
	if v, _ := s.Read(1, 8, memsys.ReadRegular, 0); v != 9.0 {
		t.Fatalf("P1 re-read = %v, want 9.0", v)
	}
	barrier(t, s, 4)
}

// TestCriticalStoreEager pins the one eager path: critical-section
// stores write through immediately and invalidate every cached copy on
// the spot, so a same-epoch bypass read observes the new value.
func TestCriticalStoreEager(t *testing.T) {
	s := newSys(t, cfg())
	s.EpochBoundary(1)
	s.Read(1, 8, memsys.ReadRegular, 0)
	barrier(t, s, 2)
	s.Write(0, 8, 4.0, true)
	if _, _, ok := cacheOf(s, 1).Lookup(8); ok {
		t.Fatal("critical store must invalidate sharers eagerly")
	}
	if v, _ := s.Read(1, 8, memsys.ReadBypass, 0); v != 4.0 {
		t.Fatalf("same-epoch read after critical store = %v, want 4.0", v)
	}
	barrier(t, s, 3)
}

// cacheOf is processor q's cache, nil if q has referenced nothing.
func cacheOf(s *System, q int) *cache.Cache {
	cc, _ := s.CacheOf(q)
	return cc
}
