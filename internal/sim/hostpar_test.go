package sim

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
	"repro/internal/swschemes"
	"repro/internal/tpi"
)

// writeSetChecker wraps a memsys.System and verifies the host-parallel
// soundness precondition: within one epoch, the non-critical write sets
// of distinct simulated processors are pairwise disjoint, so the barrier
// merge's (processor, sequence) replay order cannot change the memory
// image. Critical-section stores are exempt — they communicate between
// same-epoch tasks by design, and host-parallel mode runs such doalls
// sequentially (seqOnly).
type writeSetChecker struct {
	memsys.System
	t      *testing.T
	writer map[prog.Word]int // word -> first non-crit writer this epoch
	epoch  int64
}

func (c *writeSetChecker) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	if !crit {
		if q, ok := c.writer[addr]; ok && q != p {
			c.t.Errorf("epoch %d: word %d written by procs %d and %d", c.epoch, addr, q, p)
		} else {
			c.writer[addr] = p
		}
	}
	return c.System.Write(p, addr, val, crit)
}

func (c *writeSetChecker) EpochBoundary(epoch int64) int64 {
	clear(c.writer)
	c.epoch = epoch
	return c.System.EpochBoundary(epoch)
}

// TestEpochWriteSetsDisjoint runs every paper kernel under static and
// cyclic scheduling and property-checks DOALL write-set disjointness on
// every epoch. The config pins the sequential scalar path — the wrapper
// sees every store only there (stream cursors call the wrapped scheme
// directly) — so this validates the workload property host parallelism
// relies on, not the parallel runner itself.
func TestEpochWriteSetsDisjoint(t *testing.T) {
	for _, name := range bench.Names {
		for _, cyclic := range []bool{false, true} {
			sched := "static"
			if cyclic {
				sched = "cyclic"
			}
			t.Run(fmt.Sprintf("%s/%s", name, sched), func(t *testing.T) {
				k, err := bench.Get(name, bench.Params{N: 12, Steps: 1})
				if err != nil {
					t.Fatal(err)
				}
				p, m := compileSrc(t, k.Source)
				cfg := machine.Default(machine.SchemeBase)
				cfg.Procs = 8
				cfg.CyclicSched = cyclic
				cfg.FastPath = false
				cfg.HostParallel = 0
				sys := &writeSetChecker{
					System: swschemes.NewBase(cfg, p.MemWords),
					t:      t,
					writer: map[prog.Word]int{},
				}
				if _, err := newRunner(t, p, m, sys, cfg).Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSeqOnlyLowering: doalls whose body reaches a critical or ordered
// section — at any nesting depth — must lower with seqOnly set, and
// plain doalls must not.
func TestSeqOnlyLowering(t *testing.T) {
	src := `
program p
param n = 8
scalar acc = 0.0
array A[n]
proc main() {
  doall i = 0 to n-1 { A[i] = i }
  doall i = 0 to n-1 {
    if (i > 3) {
      for j = 0 to 1 {
        critical { acc = acc + A[i] }
      }
    }
  }
}
`
	p, m := compileSrc(t, src)
	lp, err := Lower(p, m)
	if err != nil {
		t.Fatal(err)
	}
	var got []bool
	for _, proc := range lp.ir.procs {
		for i := range proc.nodes {
			if d := proc.nodes[i].doall; d != nil {
				got = append(got, d.seqOnly)
			}
		}
	}
	if len(got) != 2 || got[0] || !got[1] {
		t.Fatalf("seqOnly flags = %v, want [false true]", got)
	}
}

// runKernelHostPar runs one kernel on a fresh system and returns the
// runner (whose hostpar field records whether sharding engaged).
func runKernelHostPar(t *testing.T, sys memsys.System, cfg machine.Config) *Runner {
	t.Helper()
	k, err := bench.Get("trfd", bench.Params{N: 8, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, m := compileSrc(t, k.Source)
	r := newRunner(t, p, m, sys, cfg)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHostParallelEngagement checks which configurations shard and which
// fall back to the sequential path.
func TestHostParallelEngagement(t *testing.T) {
	k, err := bench.Get("trfd", bench.Params{N: 8, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := compileSrc(t, k.Source)
	memWords := p.MemWords

	cases := []struct {
		name   string
		mutate func(*machine.Config)
		sys    func(machine.Config) memsys.System
		want   bool
	}{
		{"base-hostpar4", nil,
			func(c machine.Config) memsys.System { return swschemes.NewBase(c, memWords) }, true},
		{"sc-hostpar4", nil,
			func(c machine.Config) memsys.System { return swschemes.NewSC(c, memWords) }, true},
		{"tpi-hostpar4", nil,
			func(c machine.Config) memsys.System { return tpi.New(c, memWords) }, true},
		{"hostpar1-sequential", func(c *machine.Config) { c.HostParallel = 1 },
			func(c machine.Config) memsys.System { return tpi.New(c, memWords) }, false},
		{"dynamic-falls-back", func(c *machine.Config) { c.DynamicSched = true },
			func(c machine.Config) memsys.System { return tpi.New(c, memWords) }, false},
		{"oracle-shards", nil,
			func(c machine.Config) memsys.System { return memsys.NewOracle(c, memWords) }, true},
		{"twolevel-shards", func(c *machine.Config) { c.L1Words = 256 },
			func(c machine.Config) memsys.System { return tpi.NewTwoLevel(c, memWords) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.Default(machine.SchemeTPI)
			cfg.Procs = 8
			cfg.HostParallel = 4
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			r := runKernelHostPar(t, tc.sys(cfg), cfg)
			if got := r.hostpar != nil; got != tc.want {
				t.Fatalf("hostpar engaged = %v, want %v", got, tc.want)
			}
		})
	}
}
