package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
)

// TestMain re-execs the test binary as tpitrace when the marker variable
// is set, so the report goldens below pin the real main()'s output.
func TestMain(m *testing.M) {
	if os.Getenv("TPITRACE_BE_TPITRACE") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTpitrace runs main() on args and returns its standard output.
func runTpitrace(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TPITRACE_BE_TPITRACE=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tpitrace %v: %v\n%s", args, err, stderr.String())
	}
	return out
}

// recordTrace writes the binary trace of one small run, sized so the
// run pays misses of the classes the committed trfd trace lacks.
func recordTrace(t *testing.T, kernel string, scheme machine.Scheme) string {
	t.Helper()
	k, err := bench.Get(kernel, bench.Params{N: 8, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Default(scheme)
	cfg.Procs = 4
	cfg.CacheWords = 256
	cfg.LineWords = 8
	c, err := core.CompileForConfig(k.Source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if _, err := core.RunWithOptions(c, cfg, core.RunOptions{Trace: &bin}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.btrace")
	if err := os.WriteFile(path, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportMatchesGolden pins the bytes of every report rendering —
// the -json document, the -perfetto file, and the summary with all text
// tables — against testdata/report. Between them the traces pay every
// miss class: cold (trfd), false and true sharing (spec77 under HW),
// conservative (spec77 under TPI), replacement, lease-expired and
// bypass (qcd2 under TARDIS2).
func TestReportMatchesGolden(t *testing.T) {
	traces := []struct{ name, path string }{
		{"trfd", filepath.Join("..", "..", "internal", "obs", "testdata", "trfd.btrace")},
		{"spec77-HW", recordTrace(t, "spec77", machine.SchemeHW)},
		{"spec77-TPI", recordTrace(t, "spec77", machine.SchemeTPI)},
		{"qcd2-TARDIS2", recordTrace(t, "qcd2", machine.SchemeTardis2)},
	}
	for _, tr := range traces {
		t.Run(tr.name, func(t *testing.T) {
			perfetto := filepath.Join(t.TempDir(), "perfetto.json")
			runTpitrace(t, "-perfetto", perfetto, tr.path)
			pf, err := os.ReadFile(perfetto)
			if err != nil {
				t.Fatal(err)
			}
			outputs := []struct {
				suffix string
				got    []byte
			}{
				{".json", runTpitrace(t, "-json", tr.path)},
				{".perfetto.json", pf},
				{".txt", runTpitrace(t, "-arrays", "-procs", "-hist", tr.path)},
			}
			for _, o := range outputs {
				checkGolden(t, filepath.Join("testdata", "report", tr.name+o.suffix), o.got)
			}
		})
	}
}

// checkGolden fails the test when got differs from the golden file,
// naming the first differing line.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gl {
		if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s: line %d differs (%d vs %d lines): got %q", path, i+1, len(gl), len(wl), gl[i])
		}
	}
	t.Fatalf("%s: output is a prefix of the golden file (%d vs %d lines)", path, len(gl), len(wl))
}
