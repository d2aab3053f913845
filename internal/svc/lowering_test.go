package svc

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
)

// lineReq is ocean at one line size.
func lineReq(line int) RunRequest {
	return RunRequest{Kernel: "ocean", N: 16, Steps: 1, Config: json.RawMessage(fmt.Sprintf(`{"LineWords":%d}`, line))}
}

// TestSharedLoweringAcrossLineSizes: one kernel submitted at four line
// sizes analyses once and lowers once. The first submission fills the
// analysis tier; the other three then miss the compile tier at once, so
// their Relayouts and bindings of the one front end race (run under
// -race in CI). Each compile-tier entry binds the one closure IR to its
// own layout.
func TestSharedLoweringAcrossLineSizes(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 3})
	lines := []int{1, 2, 4, 8}
	stats := make([]JobStatus, len(lines))
	_, stats[0] = postRun(t, hs, lineReq(lines[0]))
	var wg sync.WaitGroup
	for i := 1; i < len(lines); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, stats[i] = postRun(t, hs, lineReq(lines[i]))
		}(i)
	}
	wg.Wait()
	var ir *sim.IR
	for i, line := range lines {
		if st := stats[i]; st.State != StateDone {
			t.Fatalf("line %d: state %s error %q", line, st.State, st.Error)
		}
		req := lineReq(line)
		res, err := resolve(&req)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := s.compileCache.Peek(res.compileKey)
		if !ok {
			t.Fatalf("line %d: no compile-tier entry", line)
		}
		lp, err := c.Lowered()
		if err != nil {
			t.Fatal(err)
		}
		if lp.Prog() != c.Prog {
			t.Fatalf("line %d: the lowered program is bound to another layout", line)
		}
		if ir == nil {
			ir = lp.IR()
		} else if lp.IR() != ir {
			t.Fatalf("line %d: lowered again; every layout of one front end must share its IR", line)
		}
	}
	if m := s.MetricsSnapshot(); m.AnalysisCache.Misses != 1 || m.CompileCache.Misses != 4 {
		t.Fatalf("analysis misses %d, compile misses %d; want 1 and 4", m.AnalysisCache.Misses, m.CompileCache.Misses)
	}
}

// TestColdAnalysisCoalesced: one kernel submitted at four line sizes
// at once to a cold server misses the compile tier four times, and the
// four misses share one analysis-tier lookup, so the program is
// analysed once. Each round starts a fresh server and releases the four
// submissions together.
func TestColdAnalysisCoalesced(t *testing.T) {
	lines := []int{1, 2, 4, 8}
	for round := 0; round < 20; round++ {
		s := New(Options{Workers: len(lines)})
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]string, len(lines))
		for i, line := range lines {
			wg.Add(1)
			go func(i int, req RunRequest) {
				defer wg.Done()
				<-start
				jb, deduped, apiErr := s.Submit(&req)
				if apiErr != nil {
					errs[i] = apiErr.Error()
					return
				}
				if st := s.Wait(context.Background(), jb, deduped); st.State != StateDone {
					errs[i] = st.State + ": " + st.Error
				}
			}(i, lineReq(line))
		}
		close(start)
		wg.Wait()
		m := s.MetricsSnapshot()
		s.Close()
		for i, e := range errs {
			if e != "" {
				t.Fatalf("round %d, line %d: %s", round, lines[i], e)
			}
		}
		if m.AnalysisCache.Misses != 1 || m.CompileCache.Misses != 4 {
			t.Fatalf("round %d: analysis misses %d, compile misses %d; want 1 and 4",
				round, m.AnalysisCache.Misses, m.CompileCache.Misses)
		}
	}
}

// TestCompileMissWithWarmAnalysisAllocs bounds what a compile-tier miss
// costs once its front end is in the analysis tier and lowered: a
// layout and a binding of the shared IR, not a lowering. Measured at
// n=16 on go1.24: 29 allocations, against 320 when each miss lowered
// ocean again.
func TestCompileMissWithWarmAnalysisAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	// One entry per tier: alternating two line sizes misses the compile
	// tier every time, and their shared front end always hits.
	s := New(Options{Workers: 1, CompileCacheEntries: 1})
	defer s.Close()
	var res [2]*resolved
	for i, line := range []int{2, 8} {
		req := lineReq(line)
		var err error
		if res[i], err = resolve(&req); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	missLower := func() {
		c, err := s.compile(res[i%2])
		if err == nil {
			_, err = c.Lowered()
		}
		if err != nil {
			t.Fatal(err)
		}
		i++
	}
	missLower()
	before := s.MetricsSnapshot()
	allocs := testing.AllocsPerRun(50, missLower)
	after := s.MetricsSnapshot()
	if n := after.CompileCache.Misses - before.CompileCache.Misses; n != 51 {
		t.Fatalf("compile tier missed %d of 51 calls", n)
	}
	if n := after.AnalysisCache.Hits - before.AnalysisCache.Hits; n != 51 {
		t.Fatalf("analysis tier hit %d of 51 calls", n)
	}
	const bound = 100
	if allocs > bound {
		t.Fatalf("a compile-tier miss with a warm analysis entry allocates %v times, want at most %d", allocs, bound)
	}
}

// TestRequestKeysPinned holds result keys to values recorded before
// the compile key's hashing was rewritten: the sweep fleet routes on
// them, so they must stay byte-identical.
func TestRequestKeysPinned(t *testing.T) {
	for _, c := range []struct {
		req  RunRequest
		want string
	}{
		{RunRequest{Kernel: "ocean", N: 16, Steps: 1, Scheme: "TPI"}, "60e55abe5c61535ed6dfb92ceaecca7938987a0810b4f1620d58eb67da5305dd"},
		{RunRequest{Kernel: "trfd", N: 16, Steps: 1, Scheme: "HW", PadScalars: true, Obs: "counters"}, "8af36bb4f63c6e360663f7e6dae654438ccc03e8c6cd03c822389e8139cf36dc"},
		{RunRequest{Source: "param n = 4\narray A[n]\nproc main() { A[0] = 1 }\n", Scheme: "TARDIS"}, "fc52989aac64b68ccc5d3701e9014478c48dc8fd5d38e0c1acf535fa84f4f16b"},
	} {
		got, err := RequestKey(&c.req)
		if err != nil || got != c.want {
			t.Errorf("RequestKey(%+v) = %s, %v; want %s", c.req, got, err, c.want)
		}
	}
}
