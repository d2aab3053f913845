package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
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
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TPISIM_BE_TPISIM=1")
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	err := cmd.Run()
	if err == nil {
		return 0, errBuf.String()
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("run: %v", err)
	}
	return ee.ExitCode(), errBuf.String()
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
