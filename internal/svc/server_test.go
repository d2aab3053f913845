package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/machine"
	"repro/internal/obs"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// postRun submits a request and decodes the response.
func postRun(t *testing.T, hs *httptest.Server, req RunRequest) (int, JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, st
}

// longSrc runs a few hundred thousand epochs: long enough that a
// deadline or cancellation always lands mid-run.
const longSrc = `
program longrun
param n = 16
array A[n]
proc main() {
  doall i = 0 to n-1 { A[i] = i }
  for t = 0 to 300000 {
    doall i = 0 to n-1 { A[i] = A[i] + 1.0 }
  }
}
`

// TestServerResultMatchesDirectRun is the fidelity contract: the result
// JSON the server returns is byte-identical to marshaling the RunResult
// of a direct in-process run of the same (program, config, obs) — the
// same bytes `tpisim -json` renders for that run.
func TestServerResultMatchesDirectRun(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 2})
	for _, scheme := range []string{"BASE", "TPI", "HW"} {
		for _, level := range []string{"off", "counters"} {
			code, st := postRun(t, hs, RunRequest{Kernel: "ocean", Scheme: scheme, Obs: level})
			if code != http.StatusOK || st.State != StateDone {
				t.Fatalf("%s/%s: HTTP %d state %s error %q", scheme, level, code, st.State, st.Error)
			}

			sc, err := machine.ParseScheme(scheme)
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.Default(sc).Canonical()
			k, err := bench.Get("ocean", bench.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.CompileForConfig(k.Source, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lv := obs.LevelOff
			if level == "counters" {
				lv = obs.LevelCounters
			}
			res, err := core.RunWithOptions(c, cfg, core.RunOptions{Obs: lv})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(core.NewRunResult("ocean", cfg, res.Stats, res.Report))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(st.Result, want) {
				t.Fatalf("%s/%s: server result differs from direct run:\nserver %s\ndirect %s",
					scheme, level, st.Result, want)
			}
		}
	}
}

func TestResultCacheHit(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 2})
	req := RunRequest{Kernel: "trfd", Scheme: "SC"}

	_, first := postRun(t, hs, req)
	if first.State != StateDone || first.Cached {
		t.Fatalf("first run: state %s cached %v error %q", first.State, first.Cached, first.Error)
	}
	_, second := postRun(t, hs, req)
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second run not served from cache: %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cached result differs from the computed one")
	}
	m := s.MetricsSnapshot()
	if m.Jobs.Simulated != 1 {
		t.Fatalf("Simulated = %d, want 1", m.Jobs.Simulated)
	}
	if m.ResultCache.Hits == 0 {
		t.Fatalf("result cache recorded no hits: %+v", m.ResultCache)
	}
}

// TestSingleflightDedup is the thundering-herd contract: concurrent
// identical submissions cost exactly one underlying simulation.
func TestSingleflightDedup(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 4})
	const herd = 8
	req := RunRequest{Kernel: "ocean", N: 32, Steps: 3, Scheme: "TPI"}

	var wg sync.WaitGroup
	stats := make([]JobStatus, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, stats[i] = postRun(t, hs, req)
		}(i)
	}
	wg.Wait()

	for i, st := range stats {
		if st.State != StateDone {
			t.Fatalf("submission %d: state %s error %q", i, st.State, st.Error)
		}
		if !bytes.Equal(st.Result, stats[0].Result) {
			t.Fatalf("submission %d result differs", i)
		}
	}
	m := s.MetricsSnapshot()
	if m.Jobs.Simulated != 1 {
		t.Fatalf("herd of %d cost %d simulations, want 1 (metrics %+v)", herd, m.Jobs.Simulated, m.Jobs)
	}
	if m.Jobs.Deduped+m.Jobs.CacheServed != herd-1 {
		t.Fatalf("deduped %d + cacheServed %d, want %d", m.Jobs.Deduped, m.Jobs.CacheServed, herd-1)
	}
}

// TestDeadlineJobReturnsPromptly: a job whose deadline expires mid-run
// reaches its terminal state within 100ms of the deadline (the watchdog
// releases waiters; the simulation aborts at the next epoch barrier and
// releases its pooled caches), and the server keeps serving correct
// results afterwards.
func TestDeadlineJobReturnsPromptly(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 2})
	const deadline = 100 * time.Millisecond

	start := time.Now()
	code, st := postRun(t, hs, RunRequest{Source: longSrc, Scheme: "TPI", TimeoutMS: deadline.Milliseconds()})
	elapsed := time.Since(start)
	if code != http.StatusOK || st.State != StateFailed {
		t.Fatalf("HTTP %d state %s error %q", code, st.State, st.Error)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error does not name the deadline: %q", st.Error)
	}
	if elapsed > deadline+100*time.Millisecond {
		t.Fatalf("deadline job returned after %v (deadline %v + 100ms)", elapsed, deadline)
	}

	// Pooled state survived the abort: the next run is correct.
	code, st = postRun(t, hs, RunRequest{Kernel: "ocean", Scheme: "TPI"})
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("run after aborted job: HTTP %d state %s error %q", code, st.State, st.Error)
	}
}

func TestCancelEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	_, st := postRun(t, hs, RunRequest{Source: longSrc, Scheme: "TPI", Async: true})
	if st.State == StateFailed {
		t.Fatalf("async submit failed: %q", st.Error)
	}

	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/runs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/v1/runs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got.State == StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not cancelled in time; state %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainFinishesInFlight: SIGTERM semantics — draining stops new
// submissions but completes what is already in flight.
func TestDrainFinishesInFlight(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 2})
	jb, _, apiErr := s.Submit(&RunRequest{Kernel: "ocean", N: 32, Steps: 3, Scheme: "TPI"})
	if apiErr != nil {
		t.Fatal(apiErr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := jb.status(false); st.State != StateDone {
		t.Fatalf("in-flight job after drain: state %s error %q", st.State, st.Error)
	}

	// New submissions are rejected and healthz reports draining.
	code, _ := postRunCode(t, hs, RunRequest{Kernel: "ocean", Scheme: "TPI", N: 20})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", code)
	}
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestDrainDeadlineCancelsStragglers: when the drain deadline passes,
// in-flight jobs are cancelled (abort at the next epoch barrier) and
// Drain still returns with the pool stopped.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	jb, _, apiErr := s.Submit(&RunRequest{Source: longSrc, Scheme: "TPI"})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	// Let the worker pick it up so the drain really interrupts a run.
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatal("drain within 50ms of a multi-second job should report the deadline")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v after its deadline", elapsed)
	}
	if st := jb.status(false); st.State != StateCancelled && st.State != StateFailed {
		t.Fatalf("straggler state %s, want cancelled/failed", st.State)
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1, MaxBodyBytes: 4096})
	cases := []struct {
		name string
		req  RunRequest
		code int
	}{
		{"no program", RunRequest{Scheme: "TPI"}, http.StatusBadRequest},
		{"both programs", RunRequest{Kernel: "ocean", Source: "program x"}, http.StatusBadRequest},
		{"unknown kernel", RunRequest{Kernel: "nope"}, http.StatusBadRequest},
		{"unknown scheme", RunRequest{Kernel: "ocean", Scheme: "MESI"}, http.StatusBadRequest},
		{"unknown config field", RunRequest{Kernel: "ocean", Config: json.RawMessage(`{"LineWord": 8}`)}, http.StatusBadRequest},
		{"invalid config", RunRequest{Kernel: "ocean", Config: json.RawMessage(`{"Procs": -1}`)}, http.StatusBadRequest},
		{"procs over limit", RunRequest{Kernel: "ocean", Scheme: "HW", Config: json.RawMessage(`{"Procs": 65536}`)}, http.StatusBadRequest},
		{"cache over limit", RunRequest{Kernel: "ocean", Scheme: "TPI", Config: json.RawMessage(`{"L1Words": 274877906944}`)}, http.StatusBadRequest},
		{"cluster size off mesh", RunRequest{Kernel: "ocean", Config: json.RawMessage(`{"ClusterSize": 4}`)}, http.StatusBadRequest},
		{"scheme in config", RunRequest{Kernel: "ocean", Scheme: "TPI", Config: json.RawMessage(`{"Scheme": "HW"}`)}, http.StatusBadRequest},
		{"obs trace", RunRequest{Kernel: "ocean", Obs: "trace"}, http.StatusBadRequest},
		{"bad source", RunRequest{Source: "this is not PFL"}, http.StatusOK}, // compile errors are job failures
		{"segment too large", RunRequest{Kernel: "ocean", N: 20000}, http.StatusOK},
		// A[n][n] is 2^64 words: an extent that wraps must fail the job,
		// not crash the server.
		{"segment overflows", RunRequest{Source: "program p\nparam n = 4294967296\narray A[n][n]\narray B[4]\n" +
			"proc main() { A[1][2] = 1  B[0] = A[1][2] }"}, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, st := postRun(t, hs, tc.req)
			if code != tc.code {
				t.Fatalf("HTTP %d, want %d (status %+v)", code, tc.code, st)
			}
			if tc.code == http.StatusOK && st.State != StateFailed {
				t.Fatalf("compile-error job state %s, want failed", st.State)
			}
		})
	}

	key := strings.Repeat("0", 64)
	cacheCases := []struct {
		name, body string
		code       int
	}{
		{"cache bad key", `{"keys":["` + key[:63] + `G"]}`, http.StatusBadRequest},
		{"cache short key", `{"keys":["abc"]}`, http.StatusBadRequest},
		{"cache unknown field", `{"keys":[],"owner":"w1"}`, http.StatusBadRequest},
		{"cache oversize", `{"keys":["` + strings.Repeat(key+`","`, 100) + key + `"]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cacheCases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+"/v1/cache", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}

	resp, err := http.Get(hs.URL + "/v1/runs/r-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestLargePMeshRun: a config past the 64-processor presence word on the
// clustered mesh topology runs to completion through the service (the
// worker must not crash where directory.New once panicked) and returns a
// result that passes the structural validator.
func TestLargePMeshRun(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	code, st := postRun(t, hs, RunRequest{
		Kernel: "ocean", N: 16, Steps: 1, Scheme: "HW",
		Config: json.RawMessage(`{"Procs": 128, "Topology": "mesh", "ClusterSize": 8}`),
	})
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("HTTP %d state %s error %q", code, st.State, st.Error)
	}
	if _, err := exper.ValidateRunResult(st.Result); err != nil {
		t.Fatalf("result fails validation: %v", err)
	}
}

// TestManyGeometriesKeepBoundedMemory: a server that runs many distinct
// cache geometries keeps nothing between runs but the cache free lists,
// which cache.Retained counts and caps. After a collection the live heap
// exceeds what it was after the first geometry by no more than the
// bytes the lists gained plus a 2 MB margin (the result
// cache's entries take about half a megabyte) — a quarter of what the
// cache headers alone of the later geometries would pin if they were
// kept per geometry.
func TestManyGeometriesKeepBoundedMemory(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	run := func(cacheWords int64, assoc int) {
		t.Helper()
		code, st := postRun(t, hs, RunRequest{Kernel: "ocean", N: 32, Steps: 1, Scheme: "HW",
			Config: json.RawMessage(fmt.Sprintf(`{"Procs": 256, "LineWords": 1, "CacheWords": %d, "Assoc": %d}`, cacheWords, assoc))})
		if code != http.StatusOK || st.State != StateDone {
			t.Fatalf("%d words, assoc %d: HTTP %d state %s error %q", cacheWords, assoc, code, st.State, st.Error)
		}
	}
	live := func() (heap, retained int64) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc), cache.Retained()
	}
	run(262144, 1)
	heap0, retained0 := live()
	for _, cacheWords := range []int64{262144, 131072, 65536, 32768} {
		for _, assoc := range []int{2, 4, 8} {
			run(cacheWords, assoc)
		}
	}
	heap1, retained1 := live()
	t.Logf("live heap %d -> %d bytes, free lists %d -> %d bytes", heap0, heap1, retained0, retained1)
	if grew := (heap1 - heap0) - (retained1 - retained0); grew > 2<<20 {
		t.Fatalf("live heap grew %d bytes beyond the free lists over 12 geometries", grew)
	}
}

// TestConfigOverridesChangeResults: config overrides reach the
// simulation and distinct configs get distinct cache entries.
func TestConfigOverridesChangeResults(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 2})
	_, def := postRun(t, hs, RunRequest{Kernel: "ocean", Scheme: "TPI"})
	_, big := postRun(t, hs, RunRequest{Kernel: "ocean", Scheme: "TPI",
		Config: json.RawMessage(`{"Procs": 32}`)})
	if def.State != StateDone || big.State != StateDone {
		t.Fatalf("states %s / %s", def.State, big.State)
	}
	if bytes.Equal(def.Result, big.Result) {
		t.Fatal("Procs override did not change the result")
	}
	var rr core.RunResult
	if err := json.Unmarshal(big.Result, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Procs != 32 {
		t.Fatalf("result procs %d, want 32", rr.Procs)
	}
	if m := s.MetricsSnapshot(); m.Jobs.Simulated != 2 {
		t.Fatalf("Simulated = %d, want 2", m.Jobs.Simulated)
	}
}

// TestCompileCacheSharedAcrossSchemes: the compile tier is keyed by
// (source, compile options), so the same kernel under BASE/SC/TPI (same
// line size ⇒ same compile options) compiles once.
func TestCompileCacheSharedAcrossSchemes(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	for _, scheme := range []string{"BASE", "SC", "TPI"} {
		if _, st := postRun(t, hs, RunRequest{Kernel: "flo52", Scheme: scheme}); st.State != StateDone {
			t.Fatalf("%s: state %s error %q", scheme, st.State, st.Error)
		}
	}
	m := s.MetricsSnapshot()
	if m.CompileCache.Misses != 1 || m.CompileCache.Hits < 2 {
		t.Fatalf("compile cache hits %d misses %d, want 1 miss and >= 2 hits",
			m.CompileCache.Hits, m.CompileCache.Misses)
	}
}

// TestAnalysisCacheSharedAcrossLineSizes: the analysis tier is keyed
// without the layout, so ocean at four line sizes analyses once and
// relayouts three times, and every result is byte-equal to a cold
// server's.
func TestAnalysisCacheSharedAcrossLineSizes(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	for _, line := range []int{1, 2, 4, 8} {
		req := RunRequest{Kernel: "ocean", Config: json.RawMessage(fmt.Sprintf(`{"LineWords":%d}`, line))}
		_, warm := postRun(t, hs, req)
		_, coldHS := newTestServer(t, Options{Workers: 1})
		_, cold := postRun(t, coldHS, req)
		if warm.State != StateDone || cold.State != StateDone {
			t.Fatalf("line %d: states %s %s, errors %q %q", line, warm.State, cold.State, warm.Error, cold.Error)
		}
		if !bytes.Equal(warm.Result, cold.Result) {
			t.Fatalf("line %d: relayouted result differs from a cold server's:\n%s\nwant\n%s", line, warm.Result, cold.Result)
		}
	}
	m := s.MetricsSnapshot()
	if m.AnalysisCache.Misses != 1 || m.AnalysisCache.Hits != 3 {
		t.Fatalf("analysis cache hits %d misses %d, want 3 hits and 1 miss",
			m.AnalysisCache.Hits, m.AnalysisCache.Misses)
	}
	if m.CompileCache.Misses != 4 {
		t.Fatalf("compile cache misses %d, want 4 (one per line size)", m.CompileCache.Misses)
	}
}

func postRunCode(t *testing.T, hs *httptest.Server, req RunRequest) (int, JobStatus) {
	t.Helper()
	return postRun(t, hs, req)
}
