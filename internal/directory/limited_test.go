package directory

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/memsys"
)

func limitedCfg(ptrs int) machine.Config {
	c := cfg()
	c.DirPointers = ptrs
	return c
}

func TestPointerEvictionOnOverflow(t *testing.T) {
	s := newSys(t, limitedCfg(2))
	s.EpochBoundary(1)
	// Three readers of one line with a 2-pointer directory: registering
	// the third (at its barrier) must evict one existing sharer.
	s.Read(0, 8, memsys.ReadRegular, 0)
	s.Read(1, 8, memsys.ReadRegular, 0)
	barrier(t, s, 2)
	if s.St.PointerEvictions != 0 {
		t.Fatalf("premature evictions: %d", s.St.PointerEvictions)
	}
	s.Read(2, 8, memsys.ReadRegular, 0)
	barrier(t, s, 3)
	if s.St.PointerEvictions != 1 {
		t.Fatalf("pointer evictions = %d, want 1", s.St.PointerEvictions)
	}
	// The evicted sharer re-reads: correct value, another eviction.
	v, _ := s.Read(0, 8, memsys.ReadRegular, 0)
	if v != 0 {
		t.Fatalf("value = %v", v)
	}
	barrier(t, s, 4)
	if s.St.PointerEvictions != 2 {
		t.Fatalf("pointer evictions = %d, want 2", s.St.PointerEvictions)
	}
}

func TestFullMapNeverEvictsPointers(t *testing.T) {
	s := newSys(t, limitedCfg(0))
	s.EpochBoundary(1)
	for p := 0; p < s.Cfg.Procs; p++ {
		s.Read(p, 8, memsys.ReadRegular, 0)
	}
	barrier(t, s, 2)
	if s.St.PointerEvictions != 0 {
		t.Fatalf("full map evicted %d pointers", s.St.PointerEvictions)
	}
}

func TestLimitedPointerWriteStillCoherent(t *testing.T) {
	s := newSys(t, limitedCfg(1))
	s.EpochBoundary(1)
	s.Read(0, 16, memsys.ReadRegular, 0)
	barrier(t, s, 2)
	s.Read(1, 16, memsys.ReadRegular, 0) // registration evicts P0's pointer+copy
	barrier(t, s, 3)
	s.Write(2, 16, 5.0, false) // sweep invalidates the tracked sharer (P1)
	barrier(t, s, 4)
	for p := 0; p < 3; p++ {
		if v, _ := s.Read(p, 16, memsys.ReadRegular, 0); v != 5.0 {
			t.Fatalf("P%d read %v, want 5.0", p, v)
		}
	}
	barrier(t, s, 5)
}

func TestSeqConsistencyWriteStalls(t *testing.T) {
	c := cfg()
	c.SeqConsistency = true
	s := newSys(t, c)
	s.EpochBoundary(1)
	// write miss: must stall for the ownership fetch
	if stall := s.Write(0, 24, 1.0, false); stall == 0 {
		t.Fatal("SC write miss must stall")
	}
	barrier(t, s, 2)
	// exclusive hit: silent
	if stall := s.Write(0, 24, 2.0, false); stall != 0 {
		t.Fatalf("SC exclusive write hit stalled %d", stall)
	}
	barrier(t, s, 3)
	s.Read(1, 24, memsys.ReadRegular, 0) // fetches a shared copy, downgrading P0
	barrier(t, s, 4)
	// shared upgrade: stall for the acknowledgement
	if stall := s.Write(1, 24, 3.0, false); stall == 0 {
		t.Fatal("SC upgrade must stall")
	}
	barrier(t, s, 5)
}
