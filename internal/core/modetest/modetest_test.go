package modetest

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestCheckNamesBothModes: a run that differs from the reference in one
// mode only fails Check or CheckTrace, and the error names that mode and
// the one it was compared with.
func TestCheckNamesBothModes(t *testing.T) {
	c, err := core.Compile(Program(1), core.DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Default(machine.SchemeTPI)
	cfg.Procs = 4
	cases := []struct {
		name    string
		check   func(RunFunc, machine.Config) error
		perturb func(m mode, traced bool, res *core.Result)
		want    []string
	}{
		{"snapshot", checkRuns, func(m mode, _ bool, res *core.Result) {
			if m.stream && m.hostPar > 1 && m.level == obs.LevelOff {
				res.Stats.Cycles++
			}
		}, []string{"sequential-scalar and stream+hostpar4:", "stats snapshots differ"}},
		{"memory", checkRuns, func(m mode, _ bool, res *core.Result) {
			if m.stream && m.hostPar <= 1 && m.level == obs.LevelOff {
				res.Memory[len(res.Memory)-1]++
			}
		}, []string{"sequential-scalar and stream:", "final memory hashes differ"}},
		{"report", checkRuns, func(m mode, _ bool, res *core.Result) {
			if !m.stream && m.hostPar > 1 && m.level == obs.LevelCounters {
				res.Report.TotalCycles++
			}
		}, []string{"sequential-scalar/counters and hostpar4/counters:", "obs reports differ"}},
		{"trace snapshot", checkTrace, func(m mode, traced bool, res *core.Result) {
			if traced && m.stream && m.hostPar > 1 {
				res.Stats.Invalidations++
			}
		}, []string{"sequential-scalar/counters and stream+hostpar4/trace:", "stats snapshots differ"}},
		{"trace report", checkTrace, func(m mode, traced bool, res *core.Result) {
			if traced && !m.stream && m.hostPar > 1 {
				res.Report.TotalCycles++
			}
		}, []string{"sequential-scalar/counters and hostpar4/trace:", "obs reports differ"}},
	}
	for _, tc := range cases {
		run := func(cfg machine.Config, opts core.RunOptions) (core.Result, error) {
			res, err := core.RunWithOptions(c, cfg, opts)
			if err == nil {
				tc.perturb(mode{cfg.FastPath, cfg.HostParallel, opts.Obs}, opts.Trace != nil, &res)
			}
			return res, err
		}
		err := tc.check(run, cfg)
		if err == nil {
			t.Fatalf("%s: a perturbed run passed the check", tc.name)
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not contain %q", tc.name, err, want)
			}
		}
	}
	if _, err := Check(c, cfg); err != nil {
		t.Fatalf("unperturbed runs: %v", err)
	}
	if err := CheckTrace(c, cfg); err != nil {
		t.Fatalf("unperturbed trace runs: %v", err)
	}
}

func checkRuns(run RunFunc, cfg machine.Config) error {
	_, err := CheckRuns(run, cfg)
	return err
}
