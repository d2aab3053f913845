package core

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/obs"
)

// hookedSystem wraps a real system for the run body's tests: it can
// plant an invariant failure, and it counts the releases the run body
// makes, running beforeRelease first while the caches are still held.
type hookedSystem struct {
	memsys.System
	invariants    error
	beforeRelease func(memsys.System)
	released      int
}

func (h *hookedSystem) CheckInvariants() error {
	if h.invariants != nil {
		return h.invariants
	}
	return h.System.CheckInvariants()
}

func (h *hookedSystem) ReleaseCaches() {
	if h.beforeRelease != nil {
		h.beforeRelease(h.System)
	}
	h.released++
	h.System.ReleaseCaches()
}

// optionCombos is every combination of the run body's output options:
// obs off, counters and trace, × fast-path audit × memory snapshot ×
// oracle verification.
func optionCombos() []RunOptions {
	var out []RunOptions
	for _, level := range []obs.Level{obs.LevelOff, obs.LevelCounters, obs.LevelTrace} {
		for _, audit := range []bool{false, true} {
			for _, mem := range []bool{false, true} {
				for _, verify := range []bool{false, true} {
					opts := RunOptions{Obs: level, AuditFastPath: audit, Memory: mem, Verify: verify}
					if level == obs.LevelTrace {
						opts.Trace = io.Discard
					}
					out = append(out, opts)
				}
			}
		}
	}
	return out
}

func comboName(o RunOptions) string {
	return fmt.Sprintf("obs=%s/audit=%t/memory=%t/verify=%t", o.Obs, o.AuditFastPath, o.Memory, o.Verify)
}

// TestPlantedInvariantFailure: a real HW run whose invariant check fails
// must fail under every combination of run options — instrumented,
// audited, snapshotting or verified alike — and must still hand the
// system back to its pools exactly once.
func TestPlantedInvariantFailure(t *testing.T) {
	c := compileT(t, stencilSrc)
	cfg := machine.Default(machine.SchemeHW)
	cfg.Procs = 8
	planted := errors.New("planted invariant failure")
	for _, opts := range optionCombos() {
		sys, err := NewSystem(cfg, c.Prog)
		if err != nil {
			t.Fatal(err)
		}
		hooked := &hookedSystem{System: sys, invariants: planted}
		res, err := execute(c, hooked, cfg, opts)
		if !errors.Is(err, planted) {
			t.Errorf("%s: got error %v, want the planted invariant failure", comboName(opts), err)
		}
		if res.Stats != nil || res.Report != nil || res.Memory != nil || res.FastPath != nil {
			t.Errorf("%s: a failed run returned results (stats %t, report %t, memory %t, fast path %t)", comboName(opts),
				res.Stats != nil, res.Report != nil, res.Memory != nil, res.FastPath != nil)
		}
		if hooked.released != 1 {
			t.Errorf("%s: system released %d times, want 1", comboName(opts), hooked.released)
		}
	}
}
