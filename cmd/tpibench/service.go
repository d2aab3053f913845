package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/svc"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// sweepPoints is the number of points per sweep (one coordinator Do).
const sweepPoints = 16

// sweepsPerRun is the fixed length of a service run, about 17 s on the
// reference host; -quick runs quickSweeps.
const sweepsPerRun, quickSweeps = 800, 2

// sweepSetupReps is how many times the service workload starts a fleet
// to measure set-up; the fleet of the last one serves the timed phase.
const sweepSetupReps = 21

// recheckEvery selects the distinct points re-run locally after the
// timed phase: one in recheckEvery.
const recheckEvery = 16

// warmPoint answers during set-up. Its N lies outside the stream's grid,
// so the timed phase never finds it cached.
var warmPoint = point{kernel: "ocean", scheme: "TPI", n: 10, procs: 16, lineWords: 4}

// fleet is two in-process job servers, each with one simulation worker
// behind its own HTTP listener, and a coordinator that keeps one request
// in flight per worker.
type fleet struct {
	servers []*svc.Server
	https   []*httptest.Server
	coord   *sweep.Coordinator
}

// peerWirer is the coordinator's optional peer-wiring step, asserted
// rather than called so the benchmark builds with or without the peer
// layer.
type peerWirer interface {
	WirePeers(context.Context) error
}

func startFleet(ctx context.Context, wrap func(http.Handler) http.Handler) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		s := svc.New(svc.Options{Workers: 1})
		h := s.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		f.servers = append(f.servers, s)
		f.https = append(f.https, ts)
		urls = append(urls, ts.URL)
	}
	coord, err := sweep.New(sweep.Options{Workers: urls, Window: 1})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	if pw, ok := any(coord).(peerWirer); ok {
		if err := pw.WirePeers(ctx); err != nil {
			f.close()
			return nil, fmt.Errorf("wire peers: %w", err)
		}
	}
	return f, nil
}

// close stops the listeners (waiting for their requests) and then the
// servers' worker pools.
func (f *fleet) close() {
	for _, ts := range f.https {
		ts.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

func jobsFor(pts []point) []sweep.Job {
	jobs := make([]sweep.Job, len(pts))
	for i, p := range pts {
		jobs[i] = sweep.Job{Seq: i, Label: p.label(), Req: p.request()}
	}
	return jobs
}

// setupFleet starts a fleet and waits for its first point to answer.
func setupFleet(ctx context.Context) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(ctx, nil)
	if err != nil {
		return nil, 0, err
	}
	res, _, err := f.coord.Do(ctx, jobsFor([]point{warmPoint}), nil)
	if err == nil && res[0].Err != nil {
		err = res[0].Err
	}
	if err != nil {
		f.close()
		return nil, 0, fmt.Errorf("warm-up point: %w", err)
	}
	return f, time.Since(t0), nil
}

// pointRecord is what the first answer for a distinct point left behind.
type pointRecord struct {
	hash [32]byte
	refs int64
}

// sweepRun is one timed phase of the service workload.
type sweepRun struct {
	m         *measure
	seen      map[point]pointRecord
	distinct  []point
	retries   int
	simulated int
	batchMS   []float64
	refs      int64 // simulated references in every answer, repeats included
}

// runSweeps drives the fleet with the given number of sweeps of the
// seed's point stream. st, when set, records a span per sweep for the
// handler middleware to parent under.
func runSweeps(ctx context.Context, f *fleet, opts options, sweeps int, st *svcTrace, stderr io.Writer) *sweepRun {
	r := &sweepRun{m: &measure{}, seen: make(map[point]pointRecord)}
	ps := newPointStream(opts.seed, opts.quick)
	r.m.begin()
	for batch := 0; batch < sweeps; batch++ {
		pts := make([]point, sweepPoints)
		for i := range pts {
			pts[i] = ps.next()
		}
		lat := make([]float64, len(pts))
		last := make(map[string]time.Time)
		var span int
		if st != nil {
			span = st.tr.begin("sweep.batch", -1, -1)
			st.batch.Store(int64(span))
		}
		t0 := time.Now()
		// A worker answers its points one at a time (one request in
		// flight), so the time since its previous answer is the
		// latency of the point just answered.
		results, sst, err := f.coord.Do(ctx, jobsFor(pts), func(res sweep.Result) {
			now := time.Now()
			prev, ok := last[res.Worker]
			if !ok {
				prev = t0
			}
			lat[res.Job.Seq] = float64(now.Sub(prev)) / float64(time.Millisecond)
			last[res.Worker] = now
		})
		wall := time.Since(t0)
		if st != nil {
			st.tr.end(span)
		}
		r.batchMS = append(r.batchMS, float64(wall)/float64(time.Millisecond))
		r.retries += sst.Retries
		r.simulated += sst.Simulated
		if err != nil {
			fmt.Fprintf(stderr, "tpibench: sweep %d: %v\n", batch, err)
		}
		for i, res := range results {
			r.m.attempted++
			p := pts[i]
			if res.Err != nil || res.Status == nil {
				r.m.fail(stderr, "%s: %v", p.label(), res.Err)
				continue
			}
			r.m.opMS = append(r.m.opMS, lat[i])
			h := sha256.Sum256(res.Status.Result)
			if rec, ok := r.seen[p]; ok {
				r.refs += rec.refs
				if rec.hash != h {
					r.m.fail(stderr, "%s: result differs from the point's first answer", p.label())
				}
				continue
			}
			var rr core.RunResult
			if err := json.Unmarshal(res.Status.Result, &rr); err != nil {
				r.m.fail(stderr, "%s: decode result: %v", p.label(), err)
				continue
			}
			rec := pointRecord{hash: h, refs: rr.Stats.Reads + rr.Stats.Writes}
			r.seen[p] = rec
			r.distinct = append(r.distinct, p)
			r.refs += rec.refs
		}
	}
	r.m.end()
	r.m.nsPerRef = ratio(float64(r.m.wall()), float64(r.refs))
	return r
}

// localCompiles caches the programs the re-check compiles.
type localCompiles map[point]*core.Compiled

// pointConfig resolves a point to the machine config the server runs:
// the scheme defaults, the point's overrides, canonicalized.
func pointConfig(p point) (machine.Config, error) {
	scheme, err := machine.ParseScheme(p.scheme)
	if err != nil {
		return machine.Config{}, err
	}
	req := p.request()
	cfg, err := machine.ParseConfig(req.Config, machine.Default(scheme))
	if err != nil {
		return machine.Config{}, err
	}
	return cfg.Canonical(), nil
}

func (lc localCompiles) get(p point, cfg machine.Config) (*core.Compiled, error) {
	key := point{kernel: p.kernel, n: p.n, lineWords: p.lineWords}
	if c, ok := lc[key]; ok {
		return c, nil
	}
	k, err := bench.Get(p.kernel, bench.Params{N: p.n, Steps: pointSteps})
	if err != nil {
		return nil, err
	}
	c, err := core.CompileForConfig(k.Source, cfg)
	if err != nil {
		return nil, err
	}
	lc[key] = c
	return c, nil
}

// recheck re-runs one in recheckEvery distinct points in this process,
// untimed, and compares the result bytes with the service's answer. With
// a tracer the re-runs go through the traced op decomposition.
func (r *sweepRun) recheck(tr *tracer, agg *layerAgg, stderr io.Writer) {
	lc := localCompiles{}
	for i := 0; i < len(r.distinct); i += recheckEvery {
		p := r.distinct[i]
		err := func() error {
			cfg, err := pointConfig(p)
			if err != nil {
				return err
			}
			c, err := lc.get(p, cfg)
			if err != nil {
				return err
			}
			var st *stats.Stats
			if tr == nil {
				st, err = core.Run(c, cfg)
			} else {
				var ot opTrace
				st, ot, err = tr.tracedRun(c, cfg, -1)
				if err == nil {
					agg.addOp(st, ot)
				}
			}
			if err != nil {
				return err
			}
			b, err := json.Marshal(core.NewRunResult(p.kernel, cfg, st, nil))
			if err != nil {
				return err
			}
			if sha256.Sum256(b) != r.seen[p].hash {
				return fmt.Errorf("local core.Run result differs from the service's")
			}
			return nil
		}()
		if err != nil {
			r.m.fail(stderr, "%s: recheck: %v", p.label(), err)
		}
	}
}

// runSweep runs the sweep-service workload.
func runSweep(opts options, stdout, stderr io.Writer) (result, error) {
	ctx := context.Background()
	var f *fleet
	var setups []time.Duration
	for i := 0; i < sweepSetupReps; i++ {
		if f != nil {
			f.close()
		}
		next, d, err := setupFleet(ctx)
		if err != nil {
			return result{}, err
		}
		f = next
		setups = append(setups, d)
	}
	sweeps := sweepsPerRun
	if opts.quick {
		sweeps = quickSweeps
	}
	if opts.trace == "" {
		r := runSweeps(ctx, f, opts, sweeps, nil, stderr)
		f.close()
		r.recheck(nil, nil, stderr)
		return report(stdout, "sweep-service", endToEnd, r.m.endToEndMetrics(setups), r.m), nil
	}

	// As for the simulation workloads, a traced run splits its sweeps
	// between an untraced phase and a traced one.
	half := max(1, sweeps/2)
	plain := runSweeps(ctx, f, opts, half, nil, stderr)
	f.close()
	plain.recheck(nil, nil, stderr)

	// The traced phase replays the same stream on a fresh fleet whose
	// handlers are wrapped in the span middleware.
	st := &svcTrace{tr: newTracer()}
	st.batch.Store(-1)
	tf, err := startFleet(ctx, st.wrap)
	if err != nil {
		return result{}, err
	}
	traced := runSweeps(ctx, tf, opts, half, st, stderr)
	tf.close()
	agg := &layerAgg{}
	traced.recheck(st.tr, agg, stderr)
	if err := traceSources(st.tr, agg, traced.distinct); err != nil {
		return result{}, err
	}
	vals := make(map[string]float64)
	agg.metrics(st.tr, vals)
	plain.m.goMetrics(vals)
	st.metrics(tf, traced, vals)
	plainPPS := ratio(float64(plain.m.attempted), plain.m.wall().Seconds())
	tracedPPS := ratio(float64(traced.m.attempted), traced.m.wall().Seconds())
	traced.m.failed += plain.m.failed
	traced.m.attempted += plain.m.attempted
	res := report(stdout, "sweep-service", perLayer, vals, traced.m)
	printOverhead(stdout, "sweep-service", "points_per_s", plainPPS, tracedPPS, true)
	if err := st.tr.write(opts.trace, "sweep-service", opts.seed); err != nil {
		return result{}, err
	}
	return res, nil
}

// maxTracedSources bounds how many distinct programs of the point stream
// the traced run times through the compile pipeline.
const maxTracedSources = 16

// traceSources times the compile pipeline on the first distinct programs
// the stream submitted.
func traceSources(tr *tracer, agg *layerAgg, distinct []point) error {
	done := make(map[point]bool)
	for _, p := range distinct {
		key := point{kernel: p.kernel, n: p.n, lineWords: p.lineWords}
		if done[key] {
			continue
		}
		if len(done) == maxTracedSources {
			break
		}
		done[key] = true
		k, err := bench.Get(p.kernel, bench.Params{N: p.n, Steps: pointSteps})
		if err != nil {
			return err
		}
		meds, err := tr.traceCompile(k.Source, int64(p.lineWords), -1-len(done))
		if err != nil {
			return err
		}
		agg.addCompile(meds)
	}
	return nil
}

// svcTrace is the span middleware around each worker's handler. A POST
// /v1/runs becomes an svc.http span under the current sweep's span, with
// svc.queue and svc.run children taken from the returned JobStatus
// (which carries their durations, not their start times, so they are
// placed at the end of the handler span). Peer cache fetches between the
// workers become svc.peer_fetch spans.
type svcTrace struct {
	tr    *tracer
	batch atomic.Int64 // span id of the sweep in flight
	ops   atomic.Int64

	mu                         sync.Mutex
	queueMS, runMS, overheadMS []float64
}

// teeWriter keeps a copy of the response body.
type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (w *teeWriter) Write(b []byte) (int, error) {
	w.body.Write(b)
	return w.ResponseWriter.Write(b)
}

func (s *svcTrace) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := int(s.batch.Load())
		start := s.tr.now()
		if r.Method != http.MethodPost || r.URL.Path != "/v1/runs" {
			h.ServeHTTP(w, r)
			s.tr.add("svc.peer_fetch", parent, -1, start, s.tr.now())
			return
		}
		op := int(s.ops.Add(1))
		tw := &teeWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r)
		end := s.tr.now()
		id := s.tr.add("svc.http", parent, op, start, end)
		var st svc.JobStatus
		if err := json.Unmarshal(tw.body.Bytes(), &st); err != nil {
			return
		}
		runNS, queueNS := int64(st.RunMS*1e6), int64(st.QueueMS*1e6)
		s.tr.add("svc.run", id, op, end-runNS, end)
		s.tr.add("svc.queue", id, op, end-runNS-queueNS, end-runNS)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.overheadMS = append(s.overheadMS, float64(end-start)/1e6-st.QueueMS-st.RunMS)
		if !st.Cached {
			s.queueMS = append(s.queueMS, st.QueueMS)
			s.runMS = append(s.runMS, st.RunMS)
		}
	})
}

// metrics derives the sweep and svc layer metrics of the traced phase.
func (s *svcTrace) metrics(f *fleet, r *sweepRun, v map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v["sweep.batch_ms_p50"] = median(r.batchMS)
	v["sweep.batch_ms_p95"], _ = percentile(r.batchMS, 95)
	v["sweep.retries"] = float64(r.retries)
	v["sweep.redundant_sim_ratio"] = ratio(float64(r.simulated), float64(len(r.distinct)))
	v["svc.queue_ms_p50"] = median(s.queueMS)
	v["svc.queue_ms_p95"], _ = percentile(s.queueMS, 95)
	v["svc.run_ms_p50"] = median(s.runMS)
	v["svc.http_overhead_ms_p50"] = median(s.overheadMS)
	var compileSum, compileCount float64
	var rHits, rAll, cHits, cAll int64
	for _, srv := range f.servers {
		var buf bytes.Buffer
		if err := srv.Registry().WritePrometheus(&buf); err == nil {
			if p, err := telemetry.ParseText(&buf); err == nil {
				phase := map[string]string{"phase": "compile"}
				sum, _ := p.Value("tpiserved_job_phase_seconds_sum", phase)
				n, _ := p.Value("tpiserved_job_phase_seconds_count", phase)
				compileSum += sum
				compileCount += n
			}
		}
		ms := srv.MetricsSnapshot()
		rHits += ms.ResultCache.Hits
		rAll += ms.ResultCache.Hits + ms.ResultCache.Misses
		cHits += ms.CompileCache.Hits
		cAll += ms.CompileCache.Hits + ms.CompileCache.Misses
	}
	v["svc.compile_ms_mean"] = 1e3 * ratio(compileSum, compileCount)
	v["svc.result_cache_hit_ratio"] = ratio(float64(rHits), float64(rAll))
	v["svc.compile_cache_hit_ratio"] = ratio(float64(cHits), float64(cAll))
}
