package memsys

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/prog"
)

// setGen moves the generation stamp to g, as if many epochs had passed.
// Call it only on an empty table (right after a reset) with g above every
// stamp in it.
func (o *overlay) setGen(g uint32) { o.gen = g }

// TestLaneOverlayMatchesMap drives two buffered lanes with random Write,
// WriteThrough, Value, LastWriteEpoch, CheckFresh and FlushEpochLanes
// calls over 1200 epochs and checks every answer against a reference
// built on plain maps. Some epochs write thousands of distinct words, so
// the tables grow through several doublings, and the generation stamp is
// forced through its wrap partway through.
func TestLaneOverlayMatchesMap(t *testing.T) {
	const procs, memWords, epochs = 2, 1 << 14, 1200
	cfg := testCfg()
	cfg.Procs = procs
	c := NewCore(cfg, memWords)
	c.EnableAlwaysBuffered()

	mem := make([]float64, memWords)
	lwe := make([]int64, memWords)
	for a := range mem {
		mem[a] = c.Memory.Read(prog.Word(a))
		lwe[a] = c.Memory.LastWriteEpoch(prog.Word(a))
	}
	bufs := make([]map[prog.Word]float64, procs)
	for p := range bufs {
		bufs[p] = map[prog.Word]float64{}
	}
	want := func(p int, a prog.Word) float64 {
		if v, ok := bufs[p][a]; ok {
			return v
		}
		return mem[a]
	}

	rng := rand.New(rand.NewSource(14))
	maxSlots, wrapped := 0, false
	for e := int64(1); e <= epochs; e++ {
		c.SetLaneEpoch(e)
		ops := 1 + rng.Intn(40)
		span := 64 + rng.Intn(512)
		if e%100 == 0 {
			ops, span = 6000, memWords // growth epochs
		}
		for i := 0; i < ops; i++ {
			p := rng.Intn(procs)
			ln := c.LaneFor(p)
			a := prog.Word(rng.Intn(span))
			switch r := rng.Intn(10); {
			case r < 4:
				v := float64(rng.Intn(1 << 20))
				ln.Write(a, v, p, e)
				bufs[p][a] = v
			case r == 4:
				v := float64(-rng.Intn(1 << 20))
				ln.WriteThrough(a, v, p, e)
				delete(bufs[p], a)
				mem[a], lwe[a] = v, e
			case r < 7:
				if got, w := ln.Value(a), want(p, a); got != w {
					t.Fatalf("epoch %d P%d: Value(%d) = %v, want %v", e, p, a, got, w)
				}
			case r < 9:
				w := lwe[a]
				if _, ok := bufs[p][a]; ok {
					w = e
				}
				if got := ln.LastWriteEpoch(a); got != w {
					t.Fatalf("epoch %d P%d: LastWriteEpoch(%d) = %d, want %d", e, p, a, got, w)
				}
			default:
				ln.CheckFresh(a, want(p, a), p, "test")
				if rng.Intn(8) == 0 {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("epoch %d P%d: CheckFresh(%d) accepted a stale value", e, p, a)
							}
						}()
						ln.CheckFresh(a, want(p, a)+0.5, p, "test")
					}()
				}
			}
		}
		for p := range bufs {
			if l := c.lanes[p]; l != nil {
				maxSlots = max(maxSlots, len(l.overlay.slots))
			}
		}

		c.FlushEpochLanes()
		for p := range bufs {
			for a, v := range bufs[p] {
				mem[a], lwe[a] = v, e
			}
			clear(bufs[p])
		}
		switch e {
		case epochs / 2:
			for _, l := range c.lanes {
				l.overlay.setGen(math.MaxUint32 - 1)
			}
		case epochs/2 + 2:
			for p, l := range c.lanes {
				if l.overlay.gen != 1 {
					t.Fatalf("P%d: generation %d after the forced wrap, want 1", p, l.overlay.gen)
				}
			}
			wrapped = true
		}
		for a := range mem {
			if got := c.Memory.Read(prog.Word(a)); got != mem[a] {
				t.Fatalf("after epoch %d: memory[%d] = %v, want %v", e, a, got, mem[a])
			}
			if got := c.Memory.LastWriteEpoch(prog.Word(a)); got != lwe[a] {
				t.Fatalf("after epoch %d: LastWriteEpoch(%d) = %d, want %d", e, a, got, lwe[a])
			}
		}
	}
	if maxSlots < 8*overlayMinSlots {
		t.Fatalf("largest overlay table %d slots: the growth epochs never doubled it three times", maxSlots)
	}
	if !wrapped {
		t.Fatal("the generation wrap was never checked")
	}
}

// TestLaneOverlayGenerationWrap: when the generation stamp wraps, slots
// stamped in the table's first generation must not come back to life.
func TestLaneOverlayGenerationWrap(t *testing.T) {
	cfg := testCfg()
	c := NewCore(cfg, 4096)
	c.EnableAlwaysBuffered()
	ln := c.LaneFor(0)
	for a := prog.Word(0); a < 1000; a++ {
		ln.Write(a, float64(a)+0.25, 0, 1) // the last doubling stamps these 1
	}
	c.FlushEpochLanes()
	ln.overlay.setGen(math.MaxUint32)
	ln.Write(2000, 1, 0, 2)
	c.FlushEpochLanes() // wraps
	if ln.overlay.gen != 1 {
		t.Fatalf("generation %d after the wrap, want 1", ln.overlay.gen)
	}
	ln.Write(3000, 2, 0, 3)
	for a := prog.Word(0); a < 1000; a++ {
		if got, want := ln.Value(a), c.Memory.Read(a); got != want {
			t.Fatalf("Value(%d) = %v after the wrap, want memory's %v", a, got, want)
		}
		if got := ln.LastWriteEpoch(a); got != 1 {
			t.Fatalf("LastWriteEpoch(%d) = %d after the wrap, want 1", a, got)
		}
	}
}
