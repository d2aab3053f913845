package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
)

// schemeVariant names one memory-system configuration point: a scheme
// plus the L1 size that selects the two-level TPI variant (cfg.L1Words >
// 0 puts an on-chip filter in front of the timetagged cache).
type schemeVariant struct {
	name    string
	scheme  machine.Scheme
	l1Words int64
}

// allVariants covers every sharded, stream-capable memory system: all
// six scheme families plus two-level TPI. Only the sequential oracle is
// absent — it opts out of both fast paths by design.
var allVariants = []schemeVariant{
	{"BASE", machine.SchemeBase, 0},
	{"SC", machine.SchemeSC, 0},
	{"TPI", machine.SchemeTPI, 0},
	{"TPI2L", machine.SchemeTPI, 64},
	{"HW", machine.SchemeHW, 0},
	{"VC", machine.SchemeVC, 0},
	{"TARDIS", machine.SchemeTardis, 0},
	{"TARDIS2", machine.SchemeTardis2, 0},
}

// TestHostParallelEquivalence is the tentpole's oracle: for every kernel
// x scheme variant x simulated-processor count x scheduling, a
// host-parallel run must produce a byte-identical stats.Snapshot JSON
// and an identical final memory image to the sequential run.
func TestHostParallelEquivalence(t *testing.T) {
	type point struct {
		kernel  string
		variant schemeVariant
		procs   int
		cyclic  bool
	}
	var points []point
	for _, name := range bench.Names {
		for _, v := range allVariants {
			for _, procs := range []int{16, 64} {
				for _, cyclic := range []bool{false, true} {
					points = append(points, point{name, v, procs, cyclic})
				}
			}
		}
	}
	s := smallSuite()
	_, err := forEach(points, func(pt point) ([][]string, error) {
		label := fmt.Sprintf("%s/%s/p%d/cyclic=%v", pt.kernel, pt.variant.name, pt.procs, pt.cyclic)
		cfg := s.cfg(pt.variant.scheme)
		cfg.L1Words = pt.variant.l1Words
		cfg.Procs = pt.procs
		cfg.CyclicSched = pt.cyclic
		c, err := s.compile(pt.kernel, core.CompileOptions{
			Interproc:      cfg.Interproc,
			FirstReadReuse: cfg.FirstReadReuse,
			AlignWords:     int64(cfg.LineWords),
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		seqRun, err := core.RunWithOptions(c, cfg, core.RunOptions{Memory: true})
		if err != nil {
			return nil, fmt.Errorf("%s: sequential: %w", label, err)
		}
		seqSt, seqMem := seqRun.Stats, seqRun.Memory
		cfg.HostParallel = 4
		parRun, err := core.RunWithOptions(c, cfg, core.RunOptions{Memory: true})
		if err != nil {
			return nil, fmt.Errorf("%s: hostpar: %w", label, err)
		}
		parSt, parMem := parRun.Stats, parRun.Memory
		seqJSON, err := json.Marshal(seqSt.Snapshot())
		if err != nil {
			return nil, err
		}
		parJSON, err := json.Marshal(parSt.Snapshot())
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(seqJSON, parJSON) {
			return nil, fmt.Errorf("%s: snapshots diverge:\nseq %s\npar %s", label, seqJSON, parJSON)
		}
		if !reflect.DeepEqual(seqMem, parMem) {
			return nil, fmt.Errorf("%s: final memory images diverge", label)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHostParallelObservedEquivalence: with the instrumentation layer
// on, the attributed report must be identical between sequential and
// host-parallel runs for every scheme variant, and a binary trace
// written at -hostpar 4 must replay to the identical live report (the
// shard merge preserves the trace contract).
func TestHostParallelObservedEquivalence(t *testing.T) {
	s := smallSuite()
	for _, kernel := range []string{"ocean", "trfd"} {
		for _, v := range allVariants {
			for _, cyclic := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/cyclic=%v", kernel, v.name, cyclic), func(t *testing.T) {
					cfg := s.cfg(v.scheme)
					cfg.L1Words = v.l1Words
					cfg.Procs = 16
					cfg.CyclicSched = cyclic
					c, err := s.compile(kernel, core.CompileOptions{
						Interproc:      cfg.Interproc,
						FirstReadReuse: cfg.FirstReadReuse,
						AlignWords:     int64(cfg.LineWords),
					})
					if err != nil {
						t.Fatal(err)
					}
					seqRun, err := core.RunWithOptions(c, cfg, core.RunOptions{Obs: obs.LevelCounters})
					if err != nil {
						t.Fatal(err)
					}
					seqSt, seqRep := seqRun.Stats, seqRun.Report
					cfg.HostParallel = 4
					var buf bytes.Buffer
					parRun, err := core.RunWithOptions(c, cfg, core.RunOptions{Trace: &buf})
					if err != nil {
						t.Fatal(err)
					}
					parSt, parRep := parRun.Stats, parRun.Report
					if !reflect.DeepEqual(seqSt.Snapshot(), parSt.Snapshot()) {
						t.Errorf("stats diverge:\nseq %+v\npar %+v", seqSt.Snapshot(), parSt.Snapshot())
					}
					if !reflect.DeepEqual(seqRep, parRep) {
						t.Errorf("attributed reports diverge")
					}
					replayed, err := obs.Replay(bytes.NewReader(buf.Bytes()))
					if err != nil {
						t.Fatalf("Replay: %v", err)
					}
					if !reflect.DeepEqual(replayed, parRep) {
						t.Errorf("replayed report differs from live host-parallel report")
					}
				})
			}
		}
	}
}

// TestHostParallelTraceDeterminism pins the binary-trace merge contract:
// under static scheduling the host-parallel byte stream equals the
// sequential one (static iteration order is already processor-major);
// under cyclic scheduling the stream is reordered processor-major but
// must be identical from run to run at any worker count.
func TestHostParallelTraceDeterminism(t *testing.T) {
	s := smallSuite()
	cfg := s.cfg(machine.SchemeTPI)
	cfg.Procs = 16
	c, err := s.compile("ocean", core.CompileOptions{
		Interproc:      cfg.Interproc,
		FirstReadReuse: cfg.FirstReadReuse,
		AlignWords:     int64(cfg.LineWords),
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := func(cfg machine.Config) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := core.RunWithOptions(c, cfg, core.RunOptions{Trace: &buf}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	seq := trace(cfg)
	cfg.HostParallel = 4
	if par := trace(cfg); !bytes.Equal(seq, par) {
		t.Errorf("static scheduling: host-parallel trace differs from sequential (%d vs %d bytes)", len(seq), len(par))
	}

	cfg.CyclicSched = true
	first := trace(cfg)
	cfg.HostParallel = 8
	if again := trace(cfg); !bytes.Equal(first, again) {
		t.Errorf("cyclic scheduling: trace not deterministic across worker counts (%d vs %d bytes)", len(first), len(again))
	}
}
