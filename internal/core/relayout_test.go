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
// size's front end runs exactly as a fresh compile at that line size,
// under every scheme variant and on a mesh.
func TestRelayoutMatchesCompile(t *testing.T) {
	p := bench.Params{N: 16, Steps: 2}
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
	for _, name := range []string{"ocean", "trfd"} {
		k, err := bench.Get(name, p)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := core.Compile(k.Source, core.DefaultCompileOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range []int{1, 2, 8, 16} {
			for _, pad := range []bool{false, true} {
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
					t.Fatalf("%s line=%d pad=%t: relayout key %s, %d words; compile key %s, %d words",
						name, line, pad, rc.Key, rc.Prog.MemWords, fresh.Key, fresh.Prog.MemWords)
				}
				if rc.Analysis != fe.Analysis || rc.Marks != fe.Marks {
					t.Fatalf("%s line=%d pad=%t: relayout analysed again", name, line, pad)
				}
				for _, cl := range cells {
					cfg := cl.cfg
					cfg.LineWords = line
					if got, want := runKey(t, rc, cfg), runKey(t, fresh, cfg); got != want {
						t.Errorf("%s line=%d pad=%t %s: relayouted run differs from a fresh compile's:\n%s\nwant\n%s",
							name, line, pad, cl.name, got, want)
					}
				}
			}
		}
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
// run at four layouts at once gives each layout the run of a fresh
// compile. Run under -race in CI: lowering only reads the shared
// analysis and marks.
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
	got := make([]string, len(lines))
	errs := make([]error, len(lines))
	var wg sync.WaitGroup
	for i, line := range lines {
		wg.Add(1)
		go func(i, line int) {
			defer wg.Done()
			opts := core.DefaultCompileOptions()
			opts.AlignWords = int64(line)
			c, err := fe.Relayout(opts)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := core.RunWithOptions(c, cfgs[i], core.RunOptions{Memory: true, Verify: true})
			if err != nil {
				errs[i] = err
				return
			}
			b, err := json.Marshal(res.Stats.Snapshot())
			got[i], errs[i] = string(b)+" "+modetest.MemHash(res.Memory), err
		}(i, line)
	}
	wg.Wait()
	for i, line := range lines {
		if errs[i] != nil {
			t.Fatalf("line %d: %v", line, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("line %d: concurrent relayouted run differs from a fresh compile's:\n%s\nwant\n%s", line, got[i], want[i])
		}
	}
}
