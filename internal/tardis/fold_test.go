package tardis

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// TestFoldedWritesReplayLikeSeparateOnes logs random epochs of grants,
// renewals and writes through log, which folds runs of identical writes,
// into one system, and appends the same actions one entry each into a
// second; after every replay both home tables and global clocks must
// agree. Writes come in runs to one line, as stores do, so
// folding happens often.
func TestFoldedWritesReplayLikeSeparateOnes(t *testing.T) {
	for _, scheme := range []machine.Scheme{machine.SchemeTardis, machine.SchemeTardis2} {
		cfg := machine.Default(scheme)
		cfg.Procs = 4
		folded, plain := New(cfg, 256), New(cfg, 256)
		lines := folded.Memory.Size() / int64(cfg.LineWords)
		rng := rand.New(rand.NewSource(int64(scheme)))
		kinds := []actKind{actGrant, actOwnGrant, actRenewFresh, actRenewStale}
		entries, logged := 0, 0
		for epoch := 0; epoch < 300; epoch++ {
			for p := 0; p < cfg.Procs; p++ {
				for i := rng.Intn(12); i > 0; i-- {
					l := rng.Int63n(lines)
					kind, end, reps := kinds[rng.Intn(len(kinds))], folded.grantEnd(l), 1
					if !folded.excl && kind == actOwnGrant {
						kind = actGrant
					}
					if rng.Intn(2) == 0 {
						// Stores claim the epoch's uniform write timestamp;
						// an occasional other one checks that folding
						// keys on it too.
						kind, end, reps = actWrite, folded.writeEnd(l)+int64(rng.Intn(2)*rng.Intn(3)), 1+rng.Intn(5)
					}
					for ; reps > 0; reps-- {
						folded.log(p, kind, l, end)
						plain.acts[p] = append(plain.acts[p], act{kind: kind, line: l, end: end})
						logged++
					}
				}
				entries += len(folded.acts[p])
			}
			folded.replay()
			plain.replay()
			if folded.GTS() != plain.GTS() {
				t.Fatalf("%v epoch %d: gts %d folded, %d unfolded", scheme, epoch, folded.GTS(), plain.GTS())
			}
			for l := int64(0); l < lines; l++ {
				if fh, ph := decode(folded.home.Row(l)), decode(plain.home.Row(l)); fh != ph {
					t.Fatalf("%v epoch %d line %d: folded %+v, unfolded %+v", scheme, epoch, l, fh, ph)
				}
			}
		}
		if entries >= logged {
			t.Fatalf("%v: %d entries for %d logged actions: nothing folded", scheme, entries, logged)
		}
		folded.ReleaseCaches()
		plain.ReleaseCaches()
	}
}
