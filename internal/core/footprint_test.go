package core

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/tpi"
)

// TestLargePCacheFootprint is the storage gate of the chunked caches: a
// P=4096 ocean run on the clustered mesh touches a few percent of each
// processor's 64 KB cache, and must hold storage for exactly that. After
// the run every cache, two-level TPI's L1s included, holds one chunk per
// distinct chunk its touched sets span — none allocated by a lookup,
// none left over — and the 64 KB caches together hold less than a tenth
// of what allocating every set at construction would. (A 1024-word L1
// is four chunks, and a processor that runs at all touches every one.)
func TestLargePCacheFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("P=4096 runs skipped in -short mode")
	}
	k, err := bench.Get("ocean", bench.Params{N: 48, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name    string
		scheme  machine.Scheme
		l1Words int64
	}{
		{"HW", machine.SchemeHW, 0},
		{"TPI2L", machine.SchemeTPI, 1024},
		{"TARDIS2", machine.SchemeTardis2, 0},
	} {
		cfg := machine.Default(v.scheme)
		cfg.Procs = 4096
		cfg.L1Words = v.l1Words
		cfg.Topology = "mesh"
		cfg.ClusterSize = 16
		c, err := CompileForConfig(k.Source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(cfg, c.Prog)
		if err != nil {
			t.Fatal(err)
		}
		// Measure the caches as the run hands the system back, before
		// they return to their pools.
		var heldBytes, eagerBytes int64
		var built int
		var ferr error
		hooked := &hookedSystem{System: sys, beforeRelease: func(sys memsys.System) {
			heldBytes, eagerBytes, built, ferr = cacheFootprint(sys, cfg.Procs)
		}}
		if _, err := execute(c, hooked, cfg, RunOptions{}); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if ferr != nil {
			t.Fatalf("%s: %v", v.name, ferr)
		}
		if built == 0 {
			t.Fatalf("%s: the run built no caches", v.name)
		}
		if heldBytes*10 >= eagerBytes {
			t.Errorf("%s: %d caches hold %d bytes, eager allocation %d: not below a tenth", v.name, built, heldBytes, eagerBytes)
		}
		t.Logf("%s: %d caches hold %d KB of cache storage, eager allocation %d KB", v.name, built, heldBytes>>10, eagerBytes>>10)
	}
}

// cacheFootprint sums, over sys's built caches, the bytes the touched
// chunks hold and the bytes allocating every set would. Every cache,
// two-level TPI's L1s included, must hold exactly the chunks its sets
// touched.
func cacheFootprint(sys memsys.System, procs int) (heldBytes, eagerBytes int64, built int, err error) {
	for p := 0; p < procs; p++ {
		if tl, ok := sys.(*tpi.TwoLevel); ok {
			if l1 := tl.L1Of(p); l1 != nil {
				if held, touched, _ := l1.Footprint(); held != touched {
					return 0, 0, 0, fmt.Errorf("P%d's L1 holds %d chunks for %d touched", p, held, touched)
				}
			}
		}
		cc, _ := sys.(interface {
			CacheOf(int) (*cache.Cache, *cache.Tracker)
		}).CacheOf(p)
		if cc == nil {
			continue
		}
		built++
		held, touched, total := cc.Footprint()
		if held != touched {
			return 0, 0, 0, fmt.Errorf("P%d's cache holds %d chunks for %d touched", p, held, touched)
		}
		heldBytes += int64(held * cc.ChunkBytes())
		eagerBytes += int64(total * cc.ChunkBytes())
	}
	return heldBytes, eagerBytes, built, nil
}
