package core

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

// auditFastPath runs c under cfg with fast-path tracking.
func auditFastPath(t *testing.T, c *Compiled, cfg machine.Config) *FastPathStatus {
	t.Helper()
	res, err := RunWithOptions(c, cfg, RunOptions{AuditFastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.FastPath
}

// TestRunFastPathAudit pins the -require-fastpath contract at the
// library level: a fully-affine program stays on both fast paths under
// every scheme (including two-level TPI) with host parallelism and the
// stream fast path engaged; the kill switch and dynamic scheduling each
// surface a deduplicated, reasoned miss; and tracking never perturbs
// the simulated statistics.
func TestRunFastPathAudit(t *testing.T) {
	c := compileT(t, stencilSrc)

	variants := []struct {
		name    string
		scheme  machine.Scheme
		l1Words int64
	}{
		{"BASE", machine.SchemeBase, 0},
		{"SC", machine.SchemeSC, 0},
		{"TPI", machine.SchemeTPI, 0},
		{"TPI2L", machine.SchemeTPI, 64},
		{"HW", machine.SchemeHW, 0},
		{"VC", machine.SchemeVC, 0},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := machine.Default(v.scheme)
			cfg.L1Words = v.l1Words
			cfg.Procs = 8
			cfg.HostParallel = 4

			plain, err := Run(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunWithOptions(c, cfg, RunOptions{AuditFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			st, fps := res.Stats, res.FastPath
			if !fps.Clean() {
				t.Fatalf("misses on a fully-affine program: %+v", fps.Misses)
			}
			streamed := 0
			for _, d := range fps.StreamDiags {
				if d.OK {
					streamed++
				}
			}
			if streamed == 0 {
				t.Fatal("no stream loops recognized in the stencil")
			}
			if snapshotKey(t, st.Snapshot()) != snapshotKey(t, plain.Snapshot()) {
				t.Fatal("fast-path tracking perturbed the statistics")
			}
		})
	}

	t.Run("kill-switch", func(t *testing.T) {
		cfg := machine.Default(machine.SchemeTPI)
		cfg.Procs = 8
		cfg.FastPath = false
		fps := auditFastPath(t, c, cfg)
		if fps.Clean() {
			t.Fatal("kill switch must surface stream-loop misses")
		}
		for _, m := range fps.Misses {
			if m.Kind != "stream-loop" || !strings.Contains(m.Reason, "disabled") {
				t.Fatalf("unexpected miss: %+v", m)
			}
			if m.Pos == "" || m.Var == "" {
				t.Fatalf("miss lacks a source site: %+v", m)
			}
		}
	})

	t.Run("dynamic-sched", func(t *testing.T) {
		cfg := machine.Default(machine.SchemeTPI)
		cfg.Procs = 8
		cfg.HostParallel = 4
		cfg.DynamicSched = true
		fps := auditFastPath(t, c, cfg)
		found := false
		for _, m := range fps.Misses {
			if m.Kind == "doall-epoch" {
				found = true
				if !strings.Contains(m.Reason, "dynamic") {
					t.Fatalf("doall miss reason = %q", m.Reason)
				}
			}
		}
		if !found {
			t.Fatal("dynamic scheduling under -hostpar must surface doall-epoch misses")
		}
	})

	t.Run("hostpar-off-is-not-a-miss", func(t *testing.T) {
		// Sequential dispatch is the configured behavior at hostpar<=1,
		// not a fallback; only stream coverage is audited.
		cfg := machine.Default(machine.SchemeTPI)
		cfg.Procs = 8
		fps := auditFastPath(t, c, cfg)
		if !fps.Clean() {
			t.Fatalf("misses at hostpar=1: %+v", fps.Misses)
		}
	})
}
