package network

import (
	"testing"
	"testing/quick"
)

func TestStageCount(t *testing.T) {
	cases := []struct {
		procs, arity, want int
	}{
		{16, 4, 2},
		{16, 2, 4},
		{64, 4, 3},
		{1024, 4, 5},
		{1, 2, 1},
		{3, 2, 2},
	}
	for _, c := range cases {
		m := New(c.procs, c.arity)
		if m.Stages != c.want {
			t.Errorf("New(%d,%d).Stages = %d, want %d", c.procs, c.arity, m.Stages, c.want)
		}
	}
}

func TestDelayGrowsWithLoad(t *testing.T) {
	m := New(16, 4)
	d0 := m.Delay(4)
	// Saturate the load estimator.
	m.Inject(100000)
	m.AdvanceTo(1000)
	if m.Load() <= 0 {
		t.Fatal("load estimator did not rise")
	}
	d1 := m.Delay(4)
	if d1 <= d0 {
		t.Fatalf("loaded delay %d must exceed unloaded %d", d1, d0)
	}
}

func TestLoadClamped(t *testing.T) {
	m := New(16, 4)
	for i := 0; i < 50; i++ {
		m.Inject(1 << 40)
		m.AdvanceTo(int64(i+1) * 10)
	}
	if l := m.Load(); l > 0.95 {
		t.Fatalf("load %f exceeds clamp", l)
	}
	// Delay stays finite at the clamp.
	if d := m.Delay(4); d <= 0 || d > 10000 {
		t.Fatalf("clamped delay = %d", d)
	}
}

func TestDelayGrowsWithPayload(t *testing.T) {
	m := New(16, 4)
	if !(m.Delay(16) > m.Delay(4) && m.Delay(4) > m.Delay(1)) {
		t.Fatal("delay must grow with payload (pipelined words)")
	}
}

func TestRoundTrip(t *testing.T) {
	m := New(16, 4)
	if m.RoundTrip(4) != m.Delay(1)+m.Delay(4) {
		t.Fatal("round trip = request + reply")
	}
}

func TestAdvanceIgnoresPast(t *testing.T) {
	m := New(16, 4)
	m.Inject(100)
	m.AdvanceTo(100)
	l := m.Load()
	m.AdvanceTo(50) // no-op
	if m.Load() != l {
		t.Fatal("AdvanceTo into the past must not change the estimate")
	}
}

func TestQuickDelayMonotoneInLoad(t *testing.T) {
	// For any pair of load states, more load never means less delay.
	f := func(a, b uint16) bool {
		m1, m2 := New(16, 4), New(16, 4)
		m1.Inject(int64(a))
		m1.AdvanceTo(100)
		m2.Inject(int64(b))
		m2.AdvanceTo(100)
		if m1.Load() <= m2.Load() {
			return m1.Delay(4) <= m2.Delay(4)
		}
		return m1.Delay(4) >= m2.Delay(4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringForm(t *testing.T) {
	m := New(16, 4)
	if s := m.String(); s == "" {
		t.Fatal("empty string form")
	}
}

// The torus is the wraparound grid: the TestTorus* cases below build it
// the way the "torus" topology does, NewMesh(procs, 1, true), and the
// TestMesh* cases pin the same properties without wraparound.

func TestTorusDims(t *testing.T) {
	cases := []struct{ procs, dx, dy int }{
		{16, 4, 4},
		{8, 2, 4},
		{12, 3, 4},
		{7, 1, 7},
		{1, 1, 1},
	}
	for _, c := range cases {
		tr := NewMesh(c.procs, 1, true)
		if tr.DimX != c.dx || tr.DimY != c.dy {
			t.Errorf("NewMesh(%d, 1, true) = %dx%d, want %dx%d", c.procs, tr.DimX, tr.DimY, c.dx, c.dy)
		}
		if tr.DimX*tr.DimY != c.procs {
			t.Errorf("NewMesh(%d, 1, true): dims do not multiply out", c.procs)
		}
	}
}

func TestMeshDims(t *testing.T) {
	cases := []struct{ procs, cluster, dx, dy int }{
		{16, 1, 4, 4},
		{1024, 16, 8, 8},
		{4096, 16, 16, 16},
		{64, 4, 4, 4},
		{10, 4, 1, 3}, // 3 nodes, the last one partly filled
	}
	for _, c := range cases {
		m := NewMesh(c.procs, c.cluster, false)
		if m.DimX != c.dx || m.DimY != c.dy {
			t.Errorf("NewMesh(%d, %d, false) = %dx%d, want %dx%d", c.procs, c.cluster, m.DimX, m.DimY, c.dx, c.dy)
		}
	}
}

// gridDiameter returns the largest hop count between two processors and
// fails the test on any asymmetric pair.
func gridDiameter(t *testing.T, m *Mesh) int {
	t.Helper()
	max := 0
	for a := 0; a < m.Procs; a++ {
		for b := 0; b < m.Procs; b++ {
			if h := m.Hops(a, b); h > max {
				max = h
			}
			if m.Hops(a, b) != m.Hops(b, a) {
				t.Fatalf("asymmetric hops %d<->%d", a, b)
			}
		}
	}
	return max
}

func TestTorusHops(t *testing.T) {
	tr := NewMesh(16, 1, true) // 4x4
	if got := tr.Hops(0, 0); got != 0 {
		t.Errorf("self distance = %d", got)
	}
	if got := tr.Hops(0, 3); got != 1 {
		t.Errorf("ring wrap 0->3 = %d, want 1", got)
	}
	if got := tr.Hops(0, 5); got != 2 {
		t.Errorf("diagonal 0->5 = %d, want 2", got)
	}
	// max distance on a 4x4 torus is 2+2
	if d := gridDiameter(t, tr); d != 4 {
		t.Errorf("diameter = %d, want 4", d)
	}
}

func TestMeshHops(t *testing.T) {
	m := NewMesh(16, 1, false) // 4x4
	if got := m.Hops(0, 3); got != 3 {
		t.Errorf("row end 0->3 = %d, want 3 (no wraparound)", got)
	}
	if got := m.Hops(0, 5); got != 2 {
		t.Errorf("diagonal 0->5 = %d, want 2", got)
	}
	if d := gridDiameter(t, m); d != 6 {
		t.Errorf("diameter = %d, want 6", d)
	}
	c := NewMesh(64, 4, false) // 16 nodes of 4 processors
	if got := c.Hops(0, 3); got != 0 {
		t.Errorf("same-cluster hops = %d, want 0", got)
	}
	if got := c.Hops(0, 4); got != 1 {
		t.Errorf("neighbor-cluster hops = %d, want 1", got)
	}
}

func TestTorusDistanceDependence(t *testing.T) {
	for _, wrap := range []bool{true, false} {
		tr := NewMesh(16, 1, wrap)
		near := tr.DelayBetween(0, 1, 4)
		far := tr.DelayBetween(0, 10, 4)
		if !(far > near) {
			t.Errorf("wrap=%v: far delay %d should exceed near %d", wrap, far, near)
		}
	}
}

func TestTorusLoadRaisesDelay(t *testing.T) {
	for _, wrap := range []bool{true, false} {
		tr := NewMesh(16, 1, wrap)
		d0 := tr.DelayBetween(0, 10, 4)
		tr.Inject(1 << 30)
		tr.AdvanceTo(100)
		if d1 := tr.DelayBetween(0, 10, 4); d1 <= d0 {
			t.Errorf("wrap=%v: loaded delay %d should exceed unloaded %d", wrap, d1, d0)
		}
	}
}

// TestSharedLoadEstimator: every model folds the same injections into the
// same estimate, so topology choice never changes the load figure.
func TestSharedLoadEstimator(t *testing.T) {
	nets := []Net{New(16, 4), NewMesh(16, 1, true), NewMesh(16, 4, false)}
	for _, n := range nets {
		n.Inject(4000)
		n.AdvanceTo(1000)
		n.Inject(100)
		n.AdvanceTo(2000)
	}
	for _, n := range nets[1:] {
		if n.Load() != nets[0].Load() {
			t.Errorf("%v: load %v, multistage %v", n, n.Load(), nets[0].Load())
		}
	}
}

// TestLatencyTableMatchesDirectDelays drives every model's load estimate
// through a sweep of injections that reaches both clamps — 0 while idle,
// 0.95 when saturated — then decays, and after each AdvanceTo checks that
// every latency-table entry equals the direct delay expression it
// stands for: one-word and line payloads at every hop count up to the
// diameter, both round trips, and the directory's forwarded-read form
// DelayBetween(home, owner, 1) + DelayBetween(owner, p, line).
func TestLatencyTableMatchesDirectDelays(t *testing.T) {
	const lineWords = 4
	model := New(64, 4)
	mesh := NewMesh(64, 4, false)
	torus := NewMesh(64, 1, true)
	type direct interface {
		Net
		DelayBetween(src, dst, payloadWords int) int64
		RoundTripBetween(src, dst, payloadWords int) int64
	}
	nets := []struct {
		net   direct
		delay func(hops, payload int) int64 // direct one-way delay
	}{
		{model, func(_, payload int) int64 { return model.Delay(payload) }},
		{mesh, func(h, payload int) int64 { return mesh.delayHops(float64(h), payload) }},
		{torus, func(h, payload int) int64 { return torus.delayHops(float64(h), payload) }},
	}
	tables := make([]*Latency, len(nets))
	for i, n := range nets {
		tables[i] = n.net.Latencies(lineWords)
	}
	sawTop, sawZero := false, false
	cycle := int64(0)
	for step := 0; step < 120; step++ {
		var inject int64 // idle first: load 0
		switch {
		case step >= 5 && step < 45:
			inject = int64(step-5) * int64(step-5) * 50 // rising load
		case step >= 45 && step < 60:
			inject = 1 << 40 // saturate: clamp at 0.95
		}
		cycle += 1000
		for i, n := range nets {
			n.net.Inject(inject)
			n.net.AdvanceTo(cycle)
			lat := tables[i]
			for h := range lat.word {
				if lat.word[h] != n.delay(h, 1) || lat.line[h] != n.delay(h, lineWords) {
					t.Fatalf("%v step %d hops %d: table %d/%d, direct %d/%d", n.net, step, h,
						lat.word[h], lat.line[h], n.delay(h, 1), n.delay(h, lineWords))
				}
			}
			d := n.net
			for src := 0; src < 64; src++ {
				for dst := 0; dst < 64; dst++ {
					if lat.Word(src, dst) != d.DelayBetween(src, dst, 1) || lat.Line(src, dst) != d.DelayBetween(src, dst, lineWords) {
						t.Fatalf("%v step %d %d->%d: one-way delays differ", d, step, src, dst)
					}
					if lat.WordRoundTrip(src, dst) != d.RoundTripBetween(src, dst, 1) ||
						lat.LineRoundTrip(src, dst) != d.RoundTripBetween(src, dst, lineWords) {
						t.Fatalf("%v step %d %d->%d: round trips differ", d, step, src, dst)
					}
					owner := (src + dst) % 64 // the directory's forwarded read: home -> owner -> reader
					if lat.Word(dst, owner)+lat.Line(owner, src) !=
						d.DelayBetween(dst, owner, 1)+d.DelayBetween(owner, src, lineWords) {
						t.Fatalf("%v step %d %d->%d via %d: forwarded read differs", d, step, src, dst, owner)
					}
				}
			}
		}
		switch model.Load() {
		case 0.95:
			sawTop = true
		case 0:
			sawZero = true
		}
	}
	if !sawTop || !sawZero {
		t.Fatalf("load sweep missed a clamp: reached 0.95 %v, 0 %v", sawTop, sawZero)
	}
	// The model's table has one entry; a grid's covers the diameter, the
	// largest hop count of any pair.
	if got := len(tables[0].word); got != 1 {
		t.Errorf("model table has %d hop entries, want 1", got)
	}
	for _, m := range []*Mesh{mesh, torus} {
		if got, want := len(m.lat.word)-1, gridDiameter(t, m); got != want {
			t.Errorf("%v: table covers %d hops, diameter %d", m, got, want)
		}
	}
}
