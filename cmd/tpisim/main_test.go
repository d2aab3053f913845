package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// TestMain re-execs the test binary as tpisim when the marker variable
// is set, so the exit-code tests below exercise the real main() —
// including its os.Exit paths — without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("TPISIM_BE_TPISIM") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runTpisim(t *testing.T, args ...string) (exit int, stderr string) {
	t.Helper()
	exit, _, stderr = runTpisimOut(t, args...)
	return exit, stderr
}

// runTpisimOut is runTpisim that also returns stdout.
func runTpisimOut(t *testing.T, args ...string) (exit int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TPISIM_BE_TPISIM=1")
	var outBuf, errBuf strings.Builder
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	err := cmd.Run()
	if err == nil {
		return 0, outBuf.String(), errBuf.String()
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("run: %v", err)
	}
	return ee.ExitCode(), outBuf.String(), errBuf.String()
}

// TestExitCodes: malformed flags and unreadable input produce a one-line
// error and a non-zero exit — never a panic with a stack trace.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		exit int
		want string // required stderr substring
	}{
		{"no input", nil, 2, "usage:"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"unknown scheme", []string{"-bench", "ocean", "-scheme", "MESI"}, 1, "unknown scheme"},
		{"unknown kernel", []string{"-bench", "nope"}, 1, "unknown kernel"},
		{"unreadable file", []string{"/no/such/file.pfl"}, 1, "no such file"},
		{"bad n", []string{"-bench", "ocean", "-n", "0"}, 1, "out of range"},
		{"segment too large", []string{"-bench", "ocean", "-n", "20000"}, 1, "exceeds the supported maximum"},
		{"bad procs", []string{"-bench", "ocean", "-procs", "0"}, 1, "-procs"},
		{"bad cache", []string{"-bench", "ocean", "-cache", "-1"}, 1, "-cache"},
		{"bad line", []string{"-bench", "ocean", "-line", "0"}, 1, "-line"},
		{"cache too large", []string{"-bench", "ocean", "-scheme", "TPI", "-l1", "1099511627776"}, 1, "exceeds the supported total"},
		{"trace without btrace", []string{"-bench", "trfd", "-n", "8", "-steps", "1", "-scheme", "TPI", "-obs", "trace"}, 1, "-btrace"},
		{"btrace multi scheme", []string{"-bench", "trfd", "-scheme", "all", "-btrace", "/tmp/x"}, 1, "-btrace"},
		{"text trace flag removed", []string{"-bench", "trfd", "-trace", "/tmp/x"}, 2, "flag provided but not defined: -trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exit, stderr := runTpisim(t, tc.args...)
			if exit != tc.exit {
				t.Fatalf("exit %d, want %d\nstderr: %s", exit, tc.exit, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, stderr)
			}
			// (the re-exec'd binary's usage text includes the -test.*
			// flag docs, so match the panic banner, not "goroutine")
			if strings.Contains(stderr, "panic:") {
				t.Fatalf("stderr shows a panic:\n%s", stderr)
			}
		})
	}
}

func TestGoodRunExitsZero(t *testing.T) {
	exit, stderr := runTpisim(t, "-bench", "trfd", "-scheme", "BASE", "-n", "8", "-steps", "1", "-verify=false")
	if exit != 0 {
		t.Fatalf("exit %d\nstderr: %s", exit, stderr)
	}
}

// TestModesCombine: mode flags no longer drop one another. Under
// -require-fastpath -json, stdout is exactly the JSON array of verified
// run results (the fast-path report goes to stderr), and a text run
// with -obs still checks the result against the oracle.
func TestModesCombine(t *testing.T) {
	exit, stdout, stderr := runTpisimOut(t, "-bench", "trfd", "-scheme", "all", "-n", "8", "-steps", "1",
		"-hostpar", "4", "-require-fastpath", "-json")
	if exit != 0 {
		t.Fatalf("exit %d\nstderr: %s", exit, stderr)
	}
	var results []core.RunResult
	if err := json.Unmarshal([]byte(stdout), &results); err != nil {
		t.Fatalf("stdout is not a JSON array of run results: %v\n%s", err, stdout)
	}
	if len(results) != len(machine.AllSchemes) {
		t.Fatalf("%d results, want one per scheme (%d)", len(results), len(machine.AllSchemes))
	}
	for _, r := range results {
		if r.Stats.Reads == 0 {
			t.Errorf("%s: empty stats", r.Scheme)
		}
	}
	if !strings.Contains(stderr, "fast-path coverage: complete") {
		t.Errorf("fast-path report missing from stderr:\n%s", stderr)
	}

	exit, stdout, stderr = runTpisimOut(t, "-bench", "trfd", "-scheme", "HW", "-n", "8", "-steps", "1", "-obs", "counters")
	if exit != 0 {
		t.Fatalf("exit %d\nstderr: %s", exit, stderr)
	}
	if !strings.Contains(stdout, "result verified against sequential oracle") {
		t.Errorf("-obs counters run was not verified:\n%s", stdout)
	}
}
