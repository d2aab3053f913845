// Command tpisweep shards parameter sweeps across a fleet of tpiserved
// workers (internal/sweep). It has two modes:
//
// Experiment mode (-exp) runs the paper's experiment tables with every
// named-kernel simulation point executed on the fleet instead of
// in-process. Output is identical — byte-for-byte — to cmd/experiments
// run sequentially at the same size, because results are
// content-addressed and stats restore losslessly:
//
//	tpisweep -workers http://h1:8177,http://h2:8177 -exp E3 -exp E7
//
// Grid mode expands a sweep spec (flags or -spec JSON file) into the
// cross product of its axes and streams one NDJSON result line per
// point as it lands, in completion order:
//
//	tpisweep -workers http://h1:8177,http://h2:8177 \
//	    -kernels ocean,trfd -schemes BASE,TPI,HW -n 24,48
//
// Before a grid sweep, the coordinator asks every worker which of the
// grid's result keys its cache holds (POST /v1/cache) and sends each
// held point to its holder, so a repeated point is served from cache
// rather than simulated again on another worker. Workers that die
// mid-sweep are retired after consecutive failures and their share of
// the grid is rebalanced onto the survivors. -min-cached-rate turns the
// warm-resubmission cache floor into an exit code for CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/exper"
	"repro/internal/httpx"
	"repro/internal/sweep"
)

type listFlag []string

func (e *listFlag) String() string     { return strings.Join(*e, ",") }
func (e *listFlag) Set(v string) error { *e = append(*e, v); return nil }

func main() {
	var selected listFlag
	workers := flag.String("workers", "", "comma-separated tpiserved base URLs (required)")
	window := flag.Int("window", 4, "in-flight submissions per worker")
	maxAttempts := flag.Int("max-attempts", 3, "submission attempts per job before it is recorded failed")
	deathThreshold := flag.Int("death-threshold", 3, "consecutive failures that retire a worker for the sweep")
	reqTimeout := flag.Duration("request-timeout", 5*time.Minute, "per-submission deadline (queue + simulation)")
	wait := flag.Duration("wait", 10*time.Second, "how long to wait for workers to become healthy")
	minCachedRate := flag.Float64("min-cached-rate", 0, "exit non-zero unless the sweep's cached fraction reaches this floor (grid mode)")

	flag.Var(&selected, "exp", "experiment id to run on the fleet (repeatable), e.g. E3; selects experiment mode")
	quick := flag.Bool("quick", false, "small workload for a fast smoke run (experiment mode)")
	procs := flag.Int("procs", 16, "number of processors (experiment mode)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown tables (experiment mode)")
	jsonOut := flag.Bool("json", false, "emit schema-versioned results JSON (experiment mode)")
	outFile := flag.String("out", "", "also write the output to this file")

	specFile := flag.String("spec", "", "sweep spec JSON file (grid mode)")
	kernels := flag.String("kernels", "", "comma-separated kernel names (grid mode; empty = all)")
	schemes := flag.String("schemes", "", "comma-separated coherence schemes (grid mode; empty = all)")
	ns := flag.String("n", "", "comma-separated kernel grid sizes (grid mode)")
	steps := flag.String("steps", "", "comma-separated kernel time-step counts (grid mode)")
	obs := flag.String("obs", "", "observability level for every job: off or counters (grid mode)")
	noResults := flag.Bool("no-results", false, "omit result payloads from the NDJSON stream (grid mode)")
	flag.Parse()

	if err := run(runArgs{
		workers: *workers, window: *window, maxAttempts: *maxAttempts,
		deathThreshold: *deathThreshold, reqTimeout: *reqTimeout,
		wait: *wait, minCachedRate: *minCachedRate,
		selected: selected, quick: *quick, procs: *procs,
		markdown: *markdown, jsonOut: *jsonOut, outFile: *outFile,
		specFile: *specFile, kernels: *kernels, schemes: *schemes,
		ns: *ns, steps: *steps, obs: *obs, noResults: *noResults,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "tpisweep:", err)
		os.Exit(1)
	}
}

type runArgs struct {
	workers        string
	window         int
	maxAttempts    int
	deathThreshold int
	reqTimeout     time.Duration
	wait           time.Duration
	minCachedRate  float64
	selected       []string
	quick          bool
	procs          int
	markdown       bool
	jsonOut        bool
	outFile        string
	specFile       string
	kernels        string
	schemes        string
	ns             string
	steps          string
	obs            string
	noResults      bool
}

func run(a runArgs) error {
	if a.workers == "" {
		return fmt.Errorf("-workers is required (comma-separated tpiserved base URLs)")
	}
	coord, err := sweep.New(sweep.Options{
		Workers:        splitList(a.workers),
		Window:         a.window,
		MaxAttempts:    a.maxAttempts,
		DeathThreshold: a.deathThreshold,
		RequestTimeout: a.reqTimeout,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := waitHealthy(ctx, coord.Workers(), a.wait); err != nil {
		return err
	}
	if len(a.selected) > 0 {
		return runExperiments(ctx, coord, a)
	}
	return runGrid(ctx, coord, a)
}

// runExperiments renders the tables through the same exper runner as
// cmd/experiments, with the suite's executor pointed at the fleet —
// same entries, same output bytes.
func runExperiments(ctx context.Context, coord *sweep.Coordinator, a runArgs) error {
	p := bench.PaperParams()
	if a.quick {
		p = bench.DefaultParams()
	}
	if a.procs <= 0 {
		return fmt.Errorf("-procs must be positive, got %d", a.procs)
	}
	s := exper.NewSuite(p, a.procs)
	s.Exec = coord.ExperExec(ctx, p)
	start := time.Now()
	if err := s.RunSelected(a.selected, a.markdown, a.jsonOut, os.Stdout, os.Stderr, a.outFile); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "total %v across %d workers\n",
		time.Since(start).Round(time.Millisecond), len(coord.Workers()))
	return nil
}

// row is one streamed NDJSON result line.
type row struct {
	Seq     int             `json:"seq"`
	Label   string          `json:"label"`
	Worker  string          `json:"worker,omitempty"`
	State   string          `json:"state,omitempty"`
	Cached  bool            `json:"cached,omitempty"`
	RunMS   float64         `json:"runMs,omitempty"`
	Error   string          `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Attempt int             `json:"attempts,omitempty"`
}

// runGrid expands the spec and streams results as they land.
func runGrid(ctx context.Context, coord *sweep.Coordinator, a runArgs) error {
	sp, err := buildSpec(a)
	if err != nil {
		return err
	}
	jobs, err := sp.Expand()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tpisweep: %d jobs across %d workers (window %d)\n",
		len(jobs), len(coord.Workers()), a.window)

	var out *os.File
	enc := json.NewEncoder(os.Stdout)
	if a.outFile != "" {
		out, err = os.Create(a.outFile)
		if err != nil {
			return err
		}
		defer out.Close()
	}
	stream := func(r sweep.Result) {
		ln := row{Seq: r.Job.Seq, Label: r.Job.Label, Worker: r.Worker, Attempt: r.Attempts}
		if r.Err != nil {
			ln.Error = r.Err.Error()
		}
		if r.Status != nil {
			ln.State = r.Status.State
			ln.Cached = r.Status.Cached
			ln.RunMS = r.Status.RunMS
			if !a.noResults {
				ln.Result = r.Status.Result
			}
		}
		enc.Encode(&ln) //nolint:errcheck // stdout write failures surface at exit
		if out != nil {
			json.NewEncoder(out).Encode(&ln) //nolint:errcheck
		}
	}

	_, st, err := coord.Do(ctx, jobs, stream)
	fmt.Fprintf(os.Stderr,
		"tpisweep: %d/%d done (%d failed) in %.0fms — %d simulated, %d cached, %d retries, %d worker deaths, cached rate %.1f%%\n",
		st.Done, st.Jobs, st.Failed, st.ElapsedMS, st.Simulated, st.Cached,
		st.Retries, st.WorkerDeaths, 100*st.CachedRate())
	if err != nil {
		return err
	}
	if st.Failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", st.Failed, st.Jobs)
	}
	if st.CachedRate() < a.minCachedRate {
		return fmt.Errorf("cached rate %.3f below -min-cached-rate %.3f", st.CachedRate(), a.minCachedRate)
	}
	return nil
}

// buildSpec assembles the grid from -spec plus any overriding flags.
func buildSpec(a runArgs) (sweep.Spec, error) {
	var sp sweep.Spec
	if a.specFile != "" {
		data, err := os.ReadFile(a.specFile)
		if err != nil {
			return sp, err
		}
		sp, err = sweep.ParseSpec(data)
		if err != nil {
			return sp, err
		}
	}
	if a.kernels != "" {
		sp.Kernels = splitList(a.kernels)
	}
	if a.schemes != "" {
		sp.Schemes = splitList(a.schemes)
	}
	var err error
	if a.ns != "" {
		if sp.N, err = splitInts(a.ns); err != nil {
			return sp, fmt.Errorf("-n: %w", err)
		}
	}
	if a.steps != "" {
		if sp.Steps, err = splitInts(a.steps); err != nil {
			return sp, fmt.Errorf("-steps: %w", err)
		}
	}
	if a.obs != "" {
		sp.Obs = a.obs
	}
	return sp, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// waitHealthy polls every worker's /v1/healthz until all answer ok or
// the deadline passes.
func waitHealthy(ctx context.Context, workers []string, wait time.Duration) error {
	client := httpx.New(httpx.Options{Timeout: 2 * time.Second, Retries: -1})
	deadline := time.Now().Add(wait)
	for _, w := range workers {
		for {
			var doc struct {
				Status string `json:"status"`
			}
			err := client.GetJSON(ctx, w+"/v1/healthz", &doc)
			if err == nil && doc.Status == "ok" {
				break
			}
			if time.Now().After(deadline) {
				if err != nil {
					return fmt.Errorf("worker %s not healthy after %v: %w", w, wait, err)
				}
				return fmt.Errorf("worker %s not healthy after %v (status %q)", w, wait, doc.Status)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}
