package core_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/core/modetest"
	"repro/internal/machine"
	"repro/internal/sim"
)

// TestAnalysisLayoutIndependent: the section analysis and the marks
// depend on the program alone, never on where its globals sit. Every
// kernel at every alignment, with and without scalar padding, must give
// the reports of its 4-word packed compile. This is what lets Relayout
// share one front end across layouts.
func TestAnalysisLayoutIndependent(t *testing.T) {
	for _, name := range bench.Names {
		for _, n := range []int{12, 31} {
			k, err := bench.Get(name, bench.Params{N: n, Steps: 2})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.Compile(k.Source, core.DefaultCompileOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, align := range []int64{1, 2, 4, 8, 16} {
				for _, pad := range []bool{false, true} {
					opts := core.CompileOptions{Interproc: true, FirstReadReuse: true, AlignWords: align, PadScalars: pad}
					c, err := core.Compile(k.Source, opts)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s n=%d align=%d pad=%t", name, n, align, pad)
					if got, want := c.Analysis.Report(), ref.Analysis.Report(); got != want {
						t.Errorf("%s: section analysis depends on the layout:\n%s\nwant\n%s", at, got, want)
					}
					if got, want := c.Marks.Report(), ref.Marks.Report(); got != want {
						t.Errorf("%s: marks depend on the layout:\n%s\nwant\n%s", at, got, want)
					}
				}
			}
		}
	}
}

// runKey is a run's stats snapshot JSON and final memory hash.
func runKey(t *testing.T, c *core.Compiled, cfg machine.Config) string {
	t.Helper()
	res, err := core.RunWithOptions(c, cfg, core.RunOptions{Memory: true, Verify: true})
	if err != nil {
		t.Fatalf("%s: %v", cfg.Scheme, err)
	}
	return core.SnapshotKey(t, res.Stats.Snapshot()) + " " + modetest.MemHash(res.Memory)
}

// TestRelayoutMatchesCompile: a program relayouted from another line
// size's front end, with and without scalar padding, runs the front
// end's one closure IR bound to its own layout, and runs exactly as a
// fresh compile at that layout: every kernel, under every scheme
// variant and on a mesh. One configuration per layout, rotating so each
// is covered, runs in every mode of modetest.Check; the rest run once.
func TestRelayoutMatchesCompile(t *testing.T) {
	p := bench.Params{N: 12, Steps: 2}
	mesh := machine.Default(machine.SchemeHW)
	mesh.Procs, mesh.Topology, mesh.ClusterSize = 64, "mesh", 16
	type cell struct {
		name string
		cfg  machine.Config
	}
	cells := []cell{{"HW/mesh64", mesh}}
	for _, v := range modetest.Variants {
		cells = append(cells, cell{v.Name, v.Config(8, 1024)})
	}
	for ki, name := range bench.Names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k, err := bench.Get(name, p)
			if err != nil {
				t.Fatal(err)
			}
			fe, err := core.Compile(k.Source, core.DefaultCompileOptions())
			if err != nil {
				t.Fatal(err)
			}
			lp, err := fe.Lowered()
			if err != nil {
				t.Fatal(err)
			}
			layout := ki
			for _, line := range []int{1, 2, 4, 8, 16} {
				for _, pad := range []bool{false, true} {
					layout++
					opts := core.DefaultCompileOptions()
					opts.AlignWords, opts.PadScalars = int64(line), pad
					rc, err := fe.Relayout(opts)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := core.Compile(k.Source, opts)
					if err != nil {
						t.Fatal(err)
					}
					if rc.Key != fresh.Key || rc.Prog.MemWords != fresh.Prog.MemWords {
						t.Fatalf("line=%d pad=%t: relayout key %s, %d words; compile key %s, %d words",
							line, pad, rc.Key, rc.Prog.MemWords, fresh.Key, fresh.Prog.MemWords)
					}
					if rc.Analysis != fe.Analysis || rc.Marks != fe.Marks {
						t.Fatalf("line=%d pad=%t: relayout analysed again", line, pad)
					}
					rlp, err := rc.Lowered()
					if err != nil {
						t.Fatal(err)
					}
					if rlp.IR() != lp.IR() || rlp.Prog() != rc.Prog {
						t.Fatalf("line=%d pad=%t: the relayout lowered again or is bound to another layout", line, pad)
					}
					for ci, cl := range cells {
						cfg := cl.cfg
						cfg.LineWords = line
						var got string
						if ci == layout%len(cells) {
							if got, err = modetest.Check(rc, cfg); err != nil {
								t.Fatalf("line=%d pad=%t %s: %v", line, pad, cl.name, err)
							}
						} else {
							got = runKey(t, rc, cfg)
						}
						if want := runKey(t, fresh, cfg); got != want {
							t.Errorf("line=%d pad=%t %s: relayouted run differs from a fresh compile's:\n%s\nwant\n%s",
								line, pad, cl.name, got, want)
						}
					}
				}
			}
		})
	}
}

// TestRelayoutNeedsSameAnalysis: marks computed under one analysis
// setting are never reused under another.
func TestRelayoutNeedsSameAnalysis(t *testing.T) {
	fe := core.CompileT(t, core.StencilSrc)
	for _, opts := range []core.CompileOptions{
		{Interproc: false, FirstReadReuse: true, AlignWords: 8},
		{Interproc: true, FirstReadReuse: false, AlignWords: 4},
	} {
		if _, err := fe.Relayout(opts); err == nil || !strings.Contains(err.Error(), "needs a new analysis") {
			t.Errorf("Relayout(%+v) = %v, want a needs-a-new-analysis error", opts, err)
		}
		if core.AnalysisKey(core.StencilSrc, opts) == core.AnalysisKey(core.StencilSrc, core.DefaultCompileOptions()) {
			t.Errorf("core.AnalysisKey(%+v) collides with the default options'", opts)
		}
	}
	opts := core.DefaultCompileOptions()
	opts.AlignWords, opts.PadScalars = 16, true
	if core.AnalysisKey(core.StencilSrc, opts) != core.AnalysisKey(core.StencilSrc, core.DefaultCompileOptions()) {
		t.Error("core.AnalysisKey depends on the layout options")
	}
}

// TestRelayoutConcurrentLowering: one front end relayouted, lowered and
// run at four layouts at once, by two goroutines per layout, gives each
// layout the run of a fresh compile, and every layout runs the one IR
// the first Lowered call among them built. Run under -race in CI:
// lowering only reads the shared analysis and marks, and binding only
// reads the shared IR.
func TestRelayoutConcurrentLowering(t *testing.T) {
	fe := core.CompileT(t, deepCallSrc("P[i] = P[i] / (Q[i] + 0.5)"))
	lines := []int{1, 2, 8, 16}
	cfgs := make([]machine.Config, len(lines))
	want := make([]string, len(lines))
	for i, line := range lines {
		cfgs[i] = machine.Default(machine.SchemeTPI)
		cfgs[i].Procs, cfgs[i].LineWords, cfgs[i].HostParallel = 8, line, 2*(i%2)
		opts := core.DefaultCompileOptions()
		opts.AlignWords = int64(line)
		fresh, err := core.Compile(fe.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = runKey(t, fresh, cfgs[i])
	}
	// Each layout's relayout is made once, by whichever of its runners
	// comes first, so the Relayouts of every layout race with each other
	// and with the other layouts' Lowered and Run, while both runners of
	// a layout share one Compiled and so its bind.
	const runners = 2
	relayouts := make([]func() (*core.Compiled, error), len(lines))
	for i, line := range lines {
		opts := core.DefaultCompileOptions()
		opts.AlignWords = int64(line)
		relayouts[i] = sync.OnceValues(func() (*core.Compiled, error) { return fe.Relayout(opts) })
	}
	got := make([]string, runners*len(lines))
	irs := make([]*sim.IR, runners*len(lines))
	errs := make([]error, runners*len(lines))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(lines)
			rc, err := relayouts[i]()
			if err != nil {
				errs[g] = err
				return
			}
			lp, err := rc.Lowered()
			if err != nil {
				errs[g] = err
				return
			}
			irs[g] = lp.IR()
			res, err := core.RunWithOptions(rc, cfgs[i], core.RunOptions{Memory: true, Verify: true})
			if err != nil {
				errs[g] = err
				return
			}
			b, err := json.Marshal(res.Stats.Snapshot())
			got[g], errs[g] = string(b)+" "+modetest.MemHash(res.Memory), err
		}(g)
	}
	wg.Wait()
	for g := range got {
		line := lines[g%len(lines)]
		if errs[g] != nil {
			t.Fatalf("line %d: %v", line, errs[g])
		}
		if irs[g] != irs[0] {
			t.Errorf("line %d: lowered again; every relayout must share the front end's IR", line)
		}
		if got[g] != want[g%len(lines)] {
			t.Errorf("line %d: concurrent relayouted run differs from a fresh compile's:\n%s\nwant\n%s", line, got[g], want[g%len(lines)])
		}
	}
}
