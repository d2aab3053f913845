package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
)

// TestTextMatchesGolden renders binary traces as text and compares them
// byte for byte with testdata/*.trace: line traces written by the
// simulator's former scalar-path text tracer for the same runs. The
// binary trace is recorded with the stream fast path on, so this also
// pins that the stream driver and the host-parallel merge emit events in
// exactly the scalar order. Static host-parallel scheduling must match
// the sequential file (static iteration order is already
// processor-major); cyclic scheduling has its own processor-major file.
func TestTextMatchesGolden(t *testing.T) {
	modes := []struct {
		name, golden string
		hostpar      int
		cyclic       bool
	}{
		{"seq", "seq", 0, false},
		{"hostpar4-static", "seq", 4, false},
		{"hostpar4-cyclic", "hostpar4-cyclic", 4, true},
	}
	for _, kernel := range []struct {
		name string
		n    int
	}{{"ocean", 8}, {"trfd", 5}} {
		for _, scheme := range []machine.Scheme{machine.SchemeTPI, machine.SchemeHW} {
			for _, m := range modes {
				t.Run(fmt.Sprintf("%s/%s/%s", kernel.name, scheme, m.name), func(t *testing.T) {
					k, err := bench.Get(kernel.name, bench.Params{N: kernel.n, Steps: 1})
					if err != nil {
						t.Fatal(err)
					}
					cfg := machine.Default(scheme)
					cfg.Procs = 4
					cfg.HostParallel = m.hostpar
					cfg.CyclicSched = m.cyclic
					c, err := core.CompileForConfig(k.Source, cfg)
					if err != nil {
						t.Fatal(err)
					}
					var bin, text bytes.Buffer
					if _, err := core.RunWithOptions(c, cfg, core.RunOptions{Trace: &bin}); err != nil {
						t.Fatal(err)
					}
					if err := writeText(&text, &bin); err != nil {
						t.Fatal(err)
					}
					want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("%s-%s-%s.trace", kernel.name, scheme, m.golden)))
					if err != nil {
						t.Fatal(err)
					}
					if got := text.Bytes(); !bytes.Equal(got, want) {
						gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
						for i := range gl {
							if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
								t.Fatalf("line %d differs (%d vs %d lines): got %q", i+1, len(gl), len(wl), gl[i])
							}
						}
						t.Fatalf("text trace is a prefix of the golden file (%d vs %d lines)", len(gl), len(wl))
					}
				})
			}
		}
	}
}

// TestTextRejectsGarbage: a corrupt trace is an error, not a panic or
// partial success.
func TestTextRejectsGarbage(t *testing.T) {
	var out bytes.Buffer
	if err := writeText(&out, bytes.NewReader([]byte("TPITRC1\nnot a trace"))); err == nil {
		t.Fatal("garbage trace rendered without error")
	}
}
