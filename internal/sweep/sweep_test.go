package sweep

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/exper"
	"repro/internal/machine"
	"repro/internal/svc"
)

// fleet spins up n real job servers and returns their base URLs plus
// the httptest handles (for mid-sweep kills).
func fleet(t *testing.T, n int) ([]string, []*httptest.Server, []*svc.Server) {
	t.Helper()
	urls := make([]string, n)
	hss := make([]*httptest.Server, n)
	svs := make([]*svc.Server, n)
	for i := 0; i < n; i++ {
		s := svc.New(svc.Options{Workers: 2})
		hs := httptest.NewServer(s.Handler())
		urls[i], hss[i], svs[i] = hs.URL, hs, s
		t.Cleanup(func() {
			hs.Close()
			s.Close()
		})
	}
	return urls, hss, svs
}

func smallSpec() Spec {
	return Spec{
		Kernels: []string{"ocean", "trfd"},
		Schemes: []string{"BASE", "TPI"},
		N:       []int{16, 24},
	}
}

func TestSpecExpandDefaults(t *testing.T) {
	jobs, err := Spec{}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := len(bench.Names) * len(machine.AllSchemes) // kernels × AllSchemes
	if len(jobs) != want {
		t.Fatalf("default grid has %d jobs, want %d", len(jobs), want)
	}
	for i, j := range jobs {
		if j.Seq != i {
			t.Fatalf("job %d has seq %d", i, j.Seq)
		}
	}
}

func TestSpecExpandAxes(t *testing.T) {
	sp := Spec{
		Kernels: []string{"ocean"},
		Schemes: []string{"TPI", "HW"},
		N:       []int{16},
		Procs:   []int{8, 32},
		Configs: []json.RawMessage{[]byte(`{"LineWords":4}`), []byte(`{"LineWords":8}`)},
	}
	jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*2*2 {
		t.Fatalf("got %d jobs, want 8", len(jobs))
	}
	// The Procs axis must fold into each config override.
	var cfg struct {
		Procs     int
		LineWords int
	}
	if err := json.Unmarshal(jobs[0].Req.Config, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Procs != 8 || cfg.LineWords != 4 {
		t.Fatalf("merged config = %+v", cfg)
	}
	if !strings.Contains(jobs[0].Label, "p8") {
		t.Fatalf("label %q missing procs axis", jobs[0].Label)
	}
}

func TestSpecExpandRejectsBadPoint(t *testing.T) {
	if _, err := (Spec{Kernels: []string{"no-such-kernel"}}).Expand(); err == nil {
		t.Fatal("bad kernel accepted")
	}
	if _, err := (Spec{Configs: []json.RawMessage{[]byte(`{"LineWords":3}`)}}).Expand(); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSweepCompletes(t *testing.T) {
	urls, _, _ := fleet(t, 2)
	coord, err := New(Options{Workers: urls, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}

	var streamed atomic.Int64
	results, st, err := coord.Do(context.Background(), jobs, func(Result) { streamed.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s): %v", i, r.Job.Label, r.Err)
		}
		if r.Job.Seq != i || r.Status == nil || r.Status.State != svc.StateDone {
			t.Fatalf("job %d: seq=%d status=%+v", i, r.Job.Seq, r.Status)
		}
		if len(r.Status.Result) == 0 {
			t.Fatalf("job %d: empty result", i)
		}
	}
	if int(streamed.Load()) != len(jobs) {
		t.Fatalf("streamed %d results, want %d", streamed.Load(), len(jobs))
	}
	if st.Done != len(jobs) || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSweepRebalanceOnWorkerDeath kills one of two workers after the
// first result lands; the sweep must still complete with exactly one
// result per job.
func TestSweepRebalanceOnWorkerDeath(t *testing.T) {
	urls, hss, _ := fleet(t, 2)
	coord, err := New(Options{
		Workers:        urls,
		Window:         2,
		MaxAttempts:    6,
		DeathThreshold: 2,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}

	var once atomic.Bool
	kill := func(Result) {
		if once.CompareAndSwap(false, true) {
			hss[1].CloseClientConnections()
			hss[1].Close()
		}
	}
	results, st, err := coord.Do(context.Background(), jobs, kill)
	if err != nil {
		t.Fatalf("sweep failed: %v (stats %+v)", err, st)
	}
	for i, r := range results {
		if r.Err != nil || r.Status == nil || r.Status.State != svc.StateDone {
			t.Fatalf("job %d (%s): err=%v status=%+v", i, r.Job.Label, r.Err, r.Status)
		}
	}
	if st.Done != len(jobs) {
		t.Fatalf("stats %+v", st)
	}
}

// TestSweepBrokenWorker drives the death threshold with a worker that
// always 500s: the broken worker must be marked dead and the sweep
// completes on the survivor, with retries recorded.
func TestSweepBrokenWorker(t *testing.T) {
	urls, _, _ := fleet(t, 1)
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer broken.Close()

	coord, err := New(Options{
		Workers:        []string{urls[0], broken.URL},
		Window:         1,
		MaxAttempts:    8,
		DeathThreshold: 1,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Spec{Kernels: []string{"ocean"}, Schemes: []string{"BASE", "TPI", "HW"}, N: []int{16}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := coord.Do(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if st.WorkerDeaths != 1 {
		t.Fatalf("workerDeaths = %d, want 1 (stats %+v)", st.WorkerDeaths, st)
	}
	if st.Retries == 0 {
		t.Fatalf("expected retries from the broken worker (stats %+v)", st)
	}
}

// TestSweepAllWorkersDead pins the no-hang contract: when the whole
// fleet is unreachable, Do returns an error promptly with a failure
// Result for every job.
func TestSweepAllWorkersDead(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	coord, err := New(Options{
		Workers:        []string{deadURL},
		MaxAttempts:    2,
		DeathThreshold: 1,
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
		RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Spec{Kernels: []string{"ocean"}, Schemes: []string{"TPI"}, N: []int{16}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var results []Result
	var sweepErr error
	go func() {
		defer close(done)
		results, _, sweepErr = coord.Do(context.Background(), jobs, nil)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Do hung with a dead fleet")
	}
	if sweepErr == nil {
		t.Fatal("expected a sweep error")
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("job %d unexpectedly succeeded", i)
		}
	}
}

// TestRouteWarmWorker warms worker A through one coordinator, then
// sweeps the same grid through a fresh two-worker coordinator: every
// point must be routed to A and served from its cache, and worker B
// must see no submission at all.
func TestRouteWarmWorker(t *testing.T) {
	urls, _, svs := fleet(t, 2)
	warm, err := New(Options{Workers: urls[:1]})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := warm.Do(context.Background(), jobs, nil); err != nil || st.Done != len(jobs) {
		t.Fatalf("warm-up sweep: err=%v stats=%+v", err, st)
	}

	coord, err := New(Options{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := coord.Do(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != len(jobs) || st.Simulated != 0 {
		t.Fatalf("expected every point cached, got %+v", st)
	}
	for i, r := range results {
		if r.Worker != urls[0] {
			t.Fatalf("job %d ran on %s, want the holder %s", i, r.Worker, urls[0])
		}
	}
	if m := svs[1].MetricsSnapshot(); m.Jobs.Submitted != 0 {
		t.Fatalf("worker B saw %d submissions, want 0", m.Jobs.Submitted)
	}
}

// TestRouteHolderDiesMidSweep routes a warm grid to its holder, lets
// the holder answer one job, then kills it with its other submissions
// hanging. The holder's routed jobs must move to the survivor, and each
// job must be delivered exactly once.
func TestRouteHolderDiesMidSweep(t *testing.T) {
	urls, _, svs := fleet(t, 2) // urls[0] warms; urls[1] survives
	warm, err := New(Options{Workers: urls[:1]})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := warm.Do(context.Background(), jobs, nil); err != nil || st.Done != len(jobs) {
		t.Fatalf("warm-up sweep: err=%v stats=%+v", err, st)
	}

	// A second listener on the warm server answers cache queries and
	// one submission; later submissions hang until the listener dies.
	var runs atomic.Int64
	h := svs[0].Handler()
	holder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/runs" && runs.Add(1) > 1 {
			io.Copy(io.Discard, r.Body) // lets the server notice the close
			<-r.Context().Done()
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(holder.Close)

	coord, err := New(Options{
		Workers:        []string{holder.URL, urls[1]},
		Window:         2,
		DeathThreshold: 2,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := make([]int, len(jobs))
	var once atomic.Bool
	results, st, err := coord.Do(context.Background(), jobs, func(r Result) {
		delivered[r.Job.Seq]++
		if once.CompareAndSwap(false, true) {
			holder.CloseClientConnections()
			holder.Close()
		}
	})
	if err != nil {
		t.Fatalf("sweep failed: %v (stats %+v)", err, st)
	}
	for i, r := range results {
		if r.Err != nil || r.Status == nil || r.Status.State != svc.StateDone {
			t.Fatalf("job %d (%s): err=%v status=%+v", i, r.Job.Label, r.Err, r.Status)
		}
		if delivered[i] != 1 {
			t.Fatalf("job %d delivered %d times, want once", i, delivered[i])
		}
	}
	fromHolder := 0
	for _, r := range results {
		if r.Worker == holder.URL {
			fromHolder++
		}
	}
	if fromHolder != 1 || st.WorkerDeaths != 1 {
		t.Fatalf("holder answered %d jobs with %d worker deaths, want 1 and 1 (stats %+v)", fromHolder, st.WorkerDeaths, st)
	}
	if m := svs[1].MetricsSnapshot(); m.Jobs.Submitted != int64(len(jobs)-1) {
		t.Fatalf("survivor saw %d submissions, want %d", m.Jobs.Submitted, len(jobs)-1)
	}
}

// TestWarmResubmitCachedRate is the warm-resubmission floor the CI
// smoke also asserts end to end: resubmitting an identical sweep must
// be served (almost) entirely from the fleet's caches.
func TestWarmResubmitCachedRate(t *testing.T) {
	urls, _, _ := fleet(t, 2)
	coord, err := New(Options{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := coord.Do(context.Background(), jobs, nil); err != nil || st.Done != len(jobs) {
		t.Fatalf("cold sweep: err=%v stats=%+v", err, st)
	}
	jobs2, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := coord.Do(context.Background(), jobs2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.CachedRate() < 0.9 {
		t.Fatalf("warm cached rate %.2f below 0.9 (stats %+v)", st.CachedRate(), st)
	}
}

// TestExperExecMatchesLocal is the tables-over-the-fleet fidelity
// contract: an experiment built through the distributed executor
// renders byte-identical output to the local sequential build.
func TestExperExecMatchesLocal(t *testing.T) {
	p := bench.DefaultParams()

	local := exper.NewSuite(p, 8)
	want, err := local.E3MissRates()
	if err != nil {
		t.Fatal(err)
	}

	urls, _, _ := fleet(t, 2)
	coord, err := New(Options{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	remote := exper.NewSuite(p, 8)
	remote.Exec = coord.ExperExec(context.Background(), p)
	got, err := remote.E3MissRates()
	if err != nil {
		t.Fatal(err)
	}

	if got.String() != want.String() {
		t.Fatalf("distributed table differs from local:\n--- local ---\n%s--- fleet ---\n%s", want.String(), got.String())
	}
}
