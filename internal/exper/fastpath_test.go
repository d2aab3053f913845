package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestFastPathEquivalence is the tentpole's oracle: for every kernel x
// scheme variant (all five schemes plus two-level TPI — every system
// implements stream cursors now) x simulated-processor count x
// scheduling x host parallelism, the affine stream fast path must
// produce a byte-identical stats.Snapshot JSON and an identical final
// memory image to the scalar path.
func TestFastPathEquivalence(t *testing.T) {
	type point struct {
		kernel  string
		variant schemeVariant
		procs   int
		cyclic  bool
		hostpar int
	}
	var points []point
	for _, name := range bench.Names {
		for _, v := range allVariants {
			for _, procs := range []int{16, 64} {
				for _, cyclic := range []bool{false, true} {
					for _, hp := range []int{1, 4} {
						points = append(points, point{name, v, procs, cyclic, hp})
					}
				}
			}
		}
	}
	s := smallSuite()
	_, err := forEach(points, func(pt point) ([][]string, error) {
		label := fmt.Sprintf("%s/%s/p%d/cyclic=%v/hostpar=%d",
			pt.kernel, pt.variant.name, pt.procs, pt.cyclic, pt.hostpar)
		cfg := s.cfg(pt.variant.scheme)
		cfg.L1Words = pt.variant.l1Words
		cfg.Procs = pt.procs
		cfg.CyclicSched = pt.cyclic
		cfg.HostParallel = pt.hostpar
		c, err := s.compile(pt.kernel, core.CompileOptions{
			Interproc:      cfg.Interproc,
			FirstReadReuse: cfg.FirstReadReuse,
			AlignWords:     int64(cfg.LineWords),
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		cfg.FastPath = true
		onRun, err := core.RunWithOptions(c, cfg, core.RunOptions{Memory: true})
		if err != nil {
			return nil, fmt.Errorf("%s: fastpath: %w", label, err)
		}
		onSt, onMem := onRun.Stats, onRun.Memory
		cfg.FastPath = false
		offRun, err := core.RunWithOptions(c, cfg, core.RunOptions{Memory: true})
		if err != nil {
			return nil, fmt.Errorf("%s: scalar: %w", label, err)
		}
		offSt, offMem := offRun.Stats, offRun.Memory
		onJSON, err := json.Marshal(onSt.Snapshot())
		if err != nil {
			return nil, err
		}
		offJSON, err := json.Marshal(offSt.Snapshot())
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(onJSON, offJSON) {
			return nil, fmt.Errorf("%s: snapshots diverge:\nfast   %s\nscalar %s", label, onJSON, offJSON)
		}
		if !reflect.DeepEqual(onMem, offMem) {
			return nil, fmt.Errorf("%s: final memory images diverge", label)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFastPathObservedEquivalence: the stream driver emits
// per-reference observer events in exact scalar order, so at every
// observation level — including the full binary trace, which no longer
// disengages the fast path — the attributed report and the event stream
// must be byte-identical to the scalar path's.
func TestFastPathObservedEquivalence(t *testing.T) {
	s := smallSuite()
	for _, kernel := range []string{"ocean", "trfd"} {
		for _, v := range allVariants {
			t.Run(fmt.Sprintf("%s/%s", kernel, v.name), func(t *testing.T) {
				cfg := s.cfg(v.scheme)
				cfg.L1Words = v.l1Words
				cfg.Procs = 16
				c, err := s.compile(kernel, core.CompileOptions{
					Interproc:      cfg.Interproc,
					FirstReadReuse: cfg.FirstReadReuse,
					AlignWords:     int64(cfg.LineWords),
				})
				if err != nil {
					t.Fatal(err)
				}
				cfg.FastPath = false
				offRun, err := core.RunWithOptions(c, cfg, core.RunOptions{Obs: obs.LevelCounters})
				if err != nil {
					t.Fatal(err)
				}
				offSt, offRep := offRun.Stats, offRun.Report
				cfg.FastPath = true
				onRun, err := core.RunWithOptions(c, cfg, core.RunOptions{Obs: obs.LevelCounters})
				if err != nil {
					t.Fatal(err)
				}
				onSt, onRep := onRun.Stats, onRun.Report
				if !reflect.DeepEqual(offSt.Snapshot(), onSt.Snapshot()) {
					t.Errorf("stats diverge:\nscalar %+v\nfast   %+v", offSt.Snapshot(), onSt.Snapshot())
				}
				if !reflect.DeepEqual(offRep, onRep) {
					t.Errorf("attributed reports diverge")
				}

				var offBuf, onBuf bytes.Buffer
				cfg.FastPath = false
				if _, err := core.RunWithOptions(c, cfg, core.RunOptions{Trace: &offBuf}); err != nil {
					t.Fatal(err)
				}
				cfg.FastPath = true
				if _, err := core.RunWithOptions(c, cfg, core.RunOptions{Trace: &onBuf}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(offBuf.Bytes(), onBuf.Bytes()) {
					t.Errorf("trace-level binary streams diverge (%d vs %d bytes): the engaged fast path must emit the scalar event stream byte-for-byte",
						offBuf.Len(), onBuf.Len())
				}
			})
		}
	}
}

// TestFastPathExperimentsJSON: a whole experiment table rendered by the
// harness must be byte-identical with the fast path on and off (the
// experiments-level form of the equivalence contract, mirrored in CI
// over the full suite).
func TestFastPathExperimentsJSON(t *testing.T) {
	render := func(noFast bool) []byte {
		t.Helper()
		s := smallSuite()
		s.NoFastPath = noFast
		tab, err := s.E3MissRates()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(tab)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	on := render(false)
	off := render(true)
	if !bytes.Equal(on, off) {
		t.Errorf("E3 JSON diverges:\nfast   %s\nscalar %s", on, off)
	}
}
