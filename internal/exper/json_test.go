package exper

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestValidateRunResultAcceptsRealRuns feeds ValidateRunResult the JSON
// of an actual run under every scheme — the same bytes `tpisim -json`
// and the svc server emit — so the validator's invariants are anchored
// to what the simulator really produces.
func TestValidateRunResultAcceptsRealRuns(t *testing.T) {
	k, err := bench.Get("ocean", bench.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range machine.AllSchemes {
		cfg := machine.Default(sc)
		c, err := core.CompileForConfig(k.Source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := core.RunWithOptions(c, cfg, core.RunOptions{Obs: obs.LevelCounters})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		st, rep := run.Stats, run.Report
		b, err := json.Marshal(core.NewRunResult(k.Name, cfg, st, rep))
		if err != nil {
			t.Fatal(err)
		}
		r, err := ValidateRunResult(b)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if r.Scheme != sc.String() || r.Program != "ocean" {
			t.Fatalf("%s: parsed %s/%s", sc, r.Scheme, r.Program)
		}
	}
}

func TestValidateRunResultRejectsBroken(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"not json", "nope", "JSON"},
		{"unknown scheme", `{"scheme":"XYZ","procs":16,"stats":{"scheme":"XYZ"}}`, "scheme"},
		{"bad procs", `{"scheme":"TPI","procs":0,"stats":{"scheme":"TPI"}}`, "procs"},
		{"scheme mismatch", `{"scheme":"TPI","procs":16,"stats":{"scheme":"HW"}}`, "disagrees"},
		{"unbalanced reads", `{"scheme":"TPI","procs":16,"stats":{"scheme":"TPI","reads":10,"readHits":3,"cycles":1,"epochs":1}}`, "read hits"},
		{"zero cycles", `{"scheme":"TPI","procs":16,"stats":{"scheme":"TPI","reads":1,"readHits":1,"epochs":1}}`, "cycles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateRunResult([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
