package tardis

import (
	"testing"

	"repro/internal/machine"
)

// TestHomeRoundTrip checks that a home row stores and returns every
// field exactly, values far past any packed range included, and that an
// untouched line reads as the fresh state.
func TestHomeRoundTrip(t *testing.T) {
	cfg := machine.Default(machine.SchemeTardis2)
	cfg.Procs = 4
	s := New(cfg, 1024)
	defer s.ReleaseCaches()
	if h := decode(s.home.Row(200)); h != (homeLine{owner: -1}) {
		t.Fatalf("untouched line reads %+v, want wts 0, rts 0, hist 0, no owner", h)
	}
	cases := []homeLine{
		{0, 0, 0, -1},
		{1, 1, 0, 0},
		{5, 12, 3, 2},
		{1<<40 + 1, 1<<40 + 1, 0, -1},     // wts past 2^40
		{3, 3 + 1<<16 + 1, maxPredict, 1}, // rts - wts past 2^16
		{1 << 62, 1<<62 + 1<<20, minHist, machine.MaxProcs - 1},
		{42, 99, -1, machine.MaxProcs - 1}, // negative hist beside a high owner
	}
	for i, c := range cases {
		l := int64(i % 4)
		c.encode(s.home.Mut(l))
		if got := decode(s.home.Row(l)); got != c {
			t.Fatalf("case %d: got %+v, want %+v", i, got, c)
		}
		if wts, rts := s.LineTimestamps(l); wts != c.wts || rts != c.rts || s.OwnerOf(l) != c.owner {
			t.Fatalf("case %d: accessors read (%d, %d, owner %d), want (%d, %d, owner %d)",
				i, wts, rts, s.OwnerOf(l), c.wts, c.rts, c.owner)
		}
	}
	if h := decode(s.home.Row(200)); h != (homeLine{owner: -1}) {
		t.Fatalf("untouched line reads %+v after writes to other lines", h)
	}
}
