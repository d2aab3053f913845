package directory

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// refSet is the oracle: a plain map of members.
type refSet map[int]bool

func (r refSet) count() int { return len(r) }

func (r refSet) firstOther(p, procs int) int {
	for q := 0; q < procs; q++ {
		if q != p && r[q] {
			return q
		}
	}
	return -1
}

// TestSetAgainstReference drives the presence set of a directory row
// and a map-based reference model through the same randomized operation
// stream at widths on both sides of one word, checking every observable
// (membership, popcount, emptiness, ascending iteration, and the
// limited-pointer eviction scan) after each step, and that the row's
// other words stay untouched.
func TestSetAgainstReference(t *testing.T) {
	for _, procs := range []int{16, 64, 65, 1024} {
		procs := procs
		t.Run(fmtProcs(procs), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(procs)))
			sys := New(cfgForTest(procs), 1024)
			defer sys.ReleaseCaches()
			row := line(sys.dir.Mut(100))
			row.set(dirExclusive, procs-1)
			s := row.pres()
			if len(s) != setWords(procs) {
				t.Fatalf("presence set has %d words, want %d", len(s), setWords(procs))
			}
			ref := refSet{}
			for step := 0; step < 4000; step++ {
				p := rng.Intn(procs)
				switch rng.Intn(6) {
				case 0, 1: // add dominates, like fills do
					s.Add(p)
					ref[p] = true
				case 2:
					s.Remove(p)
					delete(ref, p)
				case 3: // eviction: clear everything (writeCritical, claims)
					if rng.Intn(8) == 0 {
						s.Reset()
						ref = refSet{}
					}
				case 4: // claim registration: sole member
					if rng.Intn(8) == 0 {
						s.Reset()
						s.Add(p)
						ref = refSet{p: true}
					}
				case 5: // pointer eviction: drop the first other member
					if v := s.FirstOther(p); v >= 0 {
						s.Remove(v)
						delete(ref, v)
					}
				}
				if got, want := s.Has(p), ref[p]; got != want {
					t.Fatalf("step %d: Has(%d) = %v, want %v", step, p, got, want)
				}
				if got, want := s.Count(), ref.count(); got != want {
					t.Fatalf("step %d: Count = %d, want %d", step, got, want)
				}
				if got, want := s.Empty(), ref.count() == 0; got != want {
					t.Fatalf("step %d: Empty = %v, want %v", step, got, want)
				}
				if got, want := s.FirstOther(p), ref.firstOther(p, procs); got != want {
					t.Fatalf("step %d: FirstOther(%d) = %d, want %d", step, p, got, want)
				}
				if row.state() != dirExclusive || row.owner() != procs-1 || !row.pend().Empty() {
					t.Fatalf("step %d: presence update leaked into the row's other words", step)
				}
				if step%97 == 0 { // iteration order: ascending, complete
					var got []int
					s.ForEach(func(q int) { got = append(got, q) })
					if len(got) != ref.count() {
						t.Fatalf("step %d: ForEach visited %d members, want %d", step, len(got), ref.count())
					}
					for i, q := range got {
						if !ref[q] {
							t.Fatalf("step %d: ForEach visited non-member %d", step, q)
						}
						if i > 0 && got[i-1] >= q {
							t.Fatalf("step %d: ForEach out of order: %v", step, got)
						}
					}
				}
			}
		})
	}
}

func fmtProcs(p int) string {
	const digits = "0123456789"
	if p == 0 {
		return "P0"
	}
	var buf [8]byte
	i := len(buf)
	for p > 0 {
		i--
		buf[i] = digits[p%10]
		p /= 10
	}
	return "P" + string(buf[i:])
}

func cfgForTest(procs int) machine.Config {
	c := machine.Default(machine.SchemeHW)
	c.Procs = procs
	c.CacheWords = 64
	c.LineWords = 4
	return c
}

// TestReleasedChunkReadsFresh fills every line of a directory chunk,
// releases the system, and checks that a chunk the next system of the
// same width takes from the free list reads as fresh: the release must
// zero what it recycles.
func TestReleasedChunkReadsFresh(t *testing.T) {
	for _, procs := range []int{16, 65} {
		s := New(cfgForTest(procs), 1024)
		for tag := int64(0); tag < 64; tag++ {
			e := line(s.dir.Mut(tag))
			e.set(dirExclusive, procs-1)
			e.pres().Add(procs - 1)
			e.pend().Add(0)
		}
		s.ReleaseCaches()
		s = New(cfgForTest(procs), 1024)
		s.dir.Mut(5)
		if got := s.dir.Chunks(); got != 1 {
			t.Fatalf("P=%d: table holds %d chunks after one write, want 1", procs, got)
		}
		err := s.dir.Each(func(tag int64, row []uint64) error {
			for _, w := range row {
				if w != 0 {
					return fmt.Errorf("P=%d: line %d of a reused chunk reads %x", procs, tag, row)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s.ReleaseCaches()
	}
}
