package memory

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/prog"
)

func TestReadWriteProvenance(t *testing.T) {
	m := New(16)
	if m.Size() != 16 {
		t.Fatalf("size = %d", m.Size())
	}
	if m.LastWriter(3) != -1 {
		t.Fatal("initial writer must be -1 (program load)")
	}
	m.Write(3, 2.5, 7, 42)
	if m.Read(3) != 2.5 || m.LastWriter(3) != 7 || m.LastWriteEpoch(3) != 42 {
		t.Fatalf("provenance: v=%v w=%d e=%d", m.Read(3), m.LastWriter(3), m.LastWriteEpoch(3))
	}
}

func TestInitWordHasNoProvenance(t *testing.T) {
	m := New(8)
	m.InitWord(2, 1.5)
	if m.Read(2) != 1.5 {
		t.Fatal("init value")
	}
	if m.LastWriteEpoch(2) != 0 || m.LastWriter(2) != -1 {
		t.Fatal("InitWord must not record a write")
	}
}

func TestCheckFreshPassesOnMatch(t *testing.T) {
	m := New(8)
	m.Write(1, 3.0, 0, 1)
	m.CheckFresh(1, 3.0, 2, "test") // must not panic
}

func TestCheckFreshPanicsOnStale(t *testing.T) {
	m := New(8)
	m.Write(1, 3.0, 0, 5)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CheckFresh must panic on a stale value")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "STALE READ") {
			t.Fatalf("panic payload: %v", r)
		}
	}()
	m.CheckFresh(1, 2.0, 3, "test")
}

func TestSnapshotIsACopy(t *testing.T) {
	m := New(4)
	m.Write(0, 1.0, 0, 1)
	snap := m.Snapshot()
	m.Write(0, 2.0, 0, 2)
	if snap[0] != 1.0 {
		t.Fatal("snapshot must not alias live memory")
	}
	if len(snap) != 4 {
		t.Fatalf("snapshot length %d", len(snap))
	}
}

// dirty writes every word of m with a value and a provenance that differ
// from the fresh state.
func dirty(m *Memory) {
	for a := prog.Word(0); a < prog.Word(m.Size()); a++ {
		m.Write(a, float64(a)+0.5, int(a%7), int64(a)+1)
	}
}

// checkFresh fails unless every word of m reads as program load left it:
// value 0, written by -1 at epoch 0.
func checkFresh(t *testing.T, m *Memory, extent int64) {
	t.Helper()
	if m.Size() != extent {
		t.Fatalf("size %d, want %d", m.Size(), extent)
	}
	for a := prog.Word(0); a < prog.Word(extent); a++ {
		if m.Read(a) != 0 || m.LastWriter(a) != -1 || m.LastWriteEpoch(a) != 0 {
			t.Fatalf("word %d: value %v, writer %d, epoch %d; want 0, -1, 0",
				a, m.Read(a), m.LastWriter(a), m.LastWriteEpoch(a))
		}
	}
}

// TestReusedImageIsFresh: a released image comes back from New at a
// smaller extent and then at a larger one within its capacity, each
// time reading as fresh on every word; an extent past its capacity gets
// a new image of exactly that extent.
func TestReusedImageIsFresh(t *testing.T) {
	first := New(1024)
	full := int64(cap(first.words))
	dirty(first)
	Release(first)

	small := New(256)
	if small != first {
		t.Fatal("New did not reuse the released image")
	}
	checkFresh(t, small, 256)
	dirty(small)
	Release(small)

	large := New(full)
	if large != first {
		t.Fatal("New did not reuse the released image at its full capacity")
	}
	checkFresh(t, large, full)
	dirty(large)
	Release(large)

	grown := New(full + 1)
	if grown == first || int64(cap(grown.words)) != full+1 || int64(cap(grown.prov)) != full+1 {
		t.Fatalf("an extent past the image's capacity must get an exact new image (cap %d)", cap(grown.words))
	}
	checkFresh(t, grown, full+1)
	Release(grown)
}

// TestProvenanceRoundTrip: the packed provenance word keeps the largest
// writer the machine allows and epochs far past 32 bits, and writer 0 at
// epoch 0 stays distinct from program load.
func TestProvenanceRoundTrip(t *testing.T) {
	m := New(4)
	defer Release(m)
	cases := []struct {
		proc  int
		epoch int64
	}{
		{machine.MaxProcs - 1, 1<<40 + 12345},
		{0, 0},
		{machine.MaxProcs - 1, 1<<(64-writerBits) - 1},
	}
	for i, c := range cases {
		a := prog.Word(i)
		m.Write(a, float64(i), c.proc, c.epoch)
		if m.LastWriter(a) != c.proc || m.LastWriteEpoch(a) != c.epoch {
			t.Fatalf("wrote P%d at epoch %d, read back P%d at epoch %d",
				c.proc, c.epoch, m.LastWriter(a), m.LastWriteEpoch(a))
		}
	}
	if m.LastWriter(3) != -1 || m.LastWriteEpoch(3) != 0 {
		t.Fatal("an unwritten word must read as program load")
	}
}

// TestReleaseRestoresRetained: New takes an image off the shared free
// lists' budget and Release puts exactly as much back.
func TestReleaseRestoresRetained(t *testing.T) {
	Release(New(512))
	base := cache.Retained()
	m := New(512)
	if got, want := cache.Retained(), base-16*int64(cap(m.words)); got != want || got == base {
		t.Fatalf("Retained %d after New, want %d", got, want)
	}
	Release(m)
	if got := cache.Retained(); got != base {
		t.Fatalf("Retained %d after Release, want the baseline %d", got, base)
	}
}

// TestConcurrentReuse: runs on several goroutines draw images of
// different extents from the one free list at once; each image comes
// back fresh however the others dirtied and released it. Run under
// -race in CI.
func TestConcurrentReuse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				extent := []int64{64, 200, 1000}[(g+i)%3]
				m := New(extent)
				for a := prog.Word(0); a < prog.Word(extent); a++ {
					if m.Read(a) != 0 || m.LastWriter(a) != -1 || m.LastWriteEpoch(a) != 0 {
						t.Errorf("goroutine %d: word %d of a reused image is not fresh", g, a)
						return
					}
				}
				dirty(m)
				Release(m)
			}
		}(g)
	}
	wg.Wait()
}
