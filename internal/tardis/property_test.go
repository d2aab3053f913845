package tardis

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
)

// The property tests drive a Tardis system directly — no compiler, no
// simulator — with randomized barrier-synchronized access patterns, and
// check at every access and every barrier the invariants the Tardis
// correctness proof rests on:
//
//   - value correctness: a read returns exactly what the sequential
//     (shadow-model) execution would — leases never let a stale value
//     through, writes always expire remote copies by the next barrier;
//   - wts <= rts on every line, and wts never ahead of the global clock
//     (CheckInvariants, here at EVERY barrier rather than end-of-run);
//   - the global logical clock is monotone and every processor clock
//     folds back into it at the barrier (pts(p) == gts after replay);
//   - read-within-lease (the proof's pts <= rts at every load): any
//     line read during an epoch ends that epoch with rts at or past the
//     epoch's gts — the reader's effective clock at access time.
//
// Access patterns obey the DOALL contract the simulator guarantees:
// word-grain ownership rotates with the epoch, only a word's owner may
// write it, and a word written in an epoch is read by no one else that
// epoch (false sharing — distinct words of one line — is exercised
// freely). Serial epochs mix in critical-section stores and bypass
// reads through processor 0.

const propMemWords = 256

// propHarness drives one configuration for a fixed number of epochs.
func propHarness(t *testing.T, cfg machine.Config, seed int64, epochs int64) {
	t.Helper()
	s := New(cfg, propMemWords)
	defer s.ReleaseCaches()

	rng := rand.New(rand.NewSource(seed))
	mem := s.Memory.Size()
	shadow := make([]float64, mem)
	P := cfg.Procs
	lineWords := int64(cfg.LineWords)

	s.EpochBoundary(0)
	prevGTS := s.GTS()
	val := 0.0
	nextVal := func() float64 { val++; return val }

	for e := int64(0); e < epochs; e++ {
		gtsStart := s.GTS()
		readLines := map[int64]bool{}

		if rng.Intn(8) == 0 {
			// Serial epoch: processor 0 runs critical-section stores
			// (globally visible immediately) and bypass reads.
			for i := 0; i < 24; i++ {
				w := prog.Word(rng.Int63n(mem))
				if rng.Intn(2) == 0 {
					v := nextVal()
					s.Write(0, w, v, true)
					shadow[w] = v
				} else {
					got, _ := s.Read(0, w, memsys.ReadBypass, 0)
					if got != shadow[w] {
						t.Fatalf("epoch %d: bypass read of word %d = %v, want %v", e, w, got, shadow[w])
					}
				}
			}
		} else {
			// DOALL epoch. Word w's owner this epoch is (w+e) mod P; plan
			// the write set first so readers can avoid written words.
			owner := func(w prog.Word) int { return int((int64(w) + e) % int64(P)) }
			written := map[prog.Word]float64{}
			var writeOrder []prog.Word
			for w := prog.Word(0); int64(w) < mem; w++ {
				if rng.Intn(6) == 0 {
					written[w] = nextVal()
					writeOrder = append(writeOrder, w)
				}
			}
			for p := 0; p < P; p++ {
				for i, n := 0, 8+rng.Intn(24); i < n; i++ {
					w := prog.Word(rng.Int63n(mem))
					if v, isWritten := written[w]; isWritten {
						if owner(w) == p {
							s.Write(p, w, v, false)
						}
						continue
					}
					got, _ := s.Read(p, w, memsys.ReadRegular, 0)
					if got != shadow[w] {
						t.Fatalf("epoch %d: P%d read word %d = %v, want %v (gts %d)",
							e, p, w, got, shadow[w], s.GTS())
					}
					readLines[int64(w)/lineWords] = true
				}
			}
			// Every planned write lands at least once (deterministic order).
			for _, w := range writeOrder {
				s.Write(owner(w), w, written[w], false)
			}
			for _, w := range writeOrder {
				shadow[w] = written[w]
			}
		}

		s.FlushEpoch()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("epoch %d barrier: %v", e, err)
		}
		if g := s.GTS(); g < prevGTS {
			t.Fatalf("epoch %d: gts went backwards: %d -> %d", e, prevGTS, g)
		}
		prevGTS = s.GTS()
		for p := 0; p < P; p++ {
			if s.PTS(p) != s.GTS() {
				t.Fatalf("epoch %d: P%d pts %d not folded into gts %d at barrier",
					e, p, s.PTS(p), s.GTS())
			}
		}
		// Read-within-lease: every line read this epoch was leased to at
		// least the reader's clock, so its home rts ends the epoch at or
		// past the epoch's gts.
		for l := range readLines {
			if _, rts := s.LineTimestamps(l); rts < gtsStart {
				t.Fatalf("epoch %d: read line %d ends with rts %d < epoch gts %d",
					e, l, rts, gtsStart)
			}
		}
		s.EpochBoundary(e + 1)
	}
}

// TestPropertyInvariants sweeps both Tardis variants across processor
// counts, seeds, and a cache small enough to force evictions and (under
// TARDIS2) dirty silent-store writebacks.
func TestPropertyInvariants(t *testing.T) {
	for _, scheme := range []machine.Scheme{machine.SchemeTardis, machine.SchemeTardis2} {
		for _, procs := range []int{4, 13} {
			for _, small := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					scheme, procs, small, seed := scheme, procs, small, seed
					name := fmt.Sprintf("%s/p%d/small=%v/seed%d", scheme, procs, small, seed)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := machine.Default(scheme)
						cfg.Procs = procs
						if small {
							// 8 lines direct-mapped: heavy conflict misses.
							cfg.CacheWords = 8 * int64(cfg.LineWords)
						}
						propHarness(t, cfg, seed, 64)
					})
				}
			}
		}
	}
}

// TestPropertyShortLease stresses lease expiry: with the minimum lease
// every cached copy expires at the next barrier, so renewals and the
// lease-expired miss class dominate. The backoff/prediction knobs are
// pinned on to walk hist across its whole [minHist, maxHist] range.
func TestPropertyShortLease(t *testing.T) {
	cfg := machine.Default(machine.SchemeTardis2)
	cfg.Procs = 8
	cfg.LeaseEpochs = 1
	cfg.LeaseMax = 4
	propHarness(t, cfg, 7, 96)
}

// TestPropertyLongLease stresses the opposite corner: leases far longer
// than the run, so copies essentially never expire on their own and
// correctness rides entirely on writes jumping wts past every lease.
func TestPropertyLongLease(t *testing.T) {
	cfg := machine.Default(machine.SchemeTardis)
	cfg.Procs = 8
	cfg.LeaseEpochs = 1 << 12
	cfg.LeaseMax = 1 << 13
	propHarness(t, cfg, 11, 96)
}
