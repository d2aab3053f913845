package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Options sizes the server. Zero values select the defaults noted on
// each field.
type Options struct {
	// Workers is the worker-pool size — the maximum number of
	// simulations in flight (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the submission queue; a full queue rejects with
	// 429 rather than buffering unboundedly (default 256).
	QueueDepth int
	// CompileCacheEntries bounds the compile tier, and the analysis tier
	// in front of it, each to this many entries (default 128).
	CompileCacheEntries int
	// ResultCacheEntries bounds the result tier (default 4096).
	ResultCacheEntries int
	// DefaultTimeout applies to jobs that carry no timeoutMs, measured
	// from submission (default 5m; <0 disables).
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds POST bodies (default 8 MiB).
	MaxBodyBytes int64
	// JobHistory is how many finished jobs stay queryable by id
	// (default 4096).
	JobHistory int
	// Logger receives the server's structured logs. Job lifecycle logs
	// at Info, per-request access logs at Debug. The default discards
	// every record: its handler is enabled at no level, so no record is
	// built or formatted and no log argument is computed.
	Logger *slog.Logger
	// Registry receives the server's Prometheus metrics (default: a
	// fresh private registry). Pass a shared registry to co-expose
	// process-level metrics (telemetry.RegisterRuntimeMetrics).
	Registry *telemetry.Registry
	// HeartbeatInterval is the floor between progress events on a job's
	// SSE stream (default 250ms). Progress is sampled at epoch barriers
	// and dropped when it arrives faster than this.
	HeartbeatInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CompileCacheEntries <= 0 {
		o.CompileCacheEntries = 128
	}
	if o.ResultCacheEntries <= 0 {
		o.ResultCacheEntries = 4096
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 5 * time.Minute
	}
	if o.DefaultTimeout < 0 {
		o.DefaultTimeout = 0
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.JobHistory <= 0 {
		o.JobHistory = 4096
	}
	if o.Logger == nil {
		o.Logger = slog.New(discardHandler{})
	}
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	return o
}

// discardHandler is the default log handler: enabled at no level, so
// the logger drops every record before building it. (slog.DiscardHandler
// is the same thing from Go 1.24 on.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// Server is the simulation job server. Build with New, mount Handler on
// an http.Server, and stop with Drain (graceful) or Close (immediate).
type Server struct {
	opts    Options
	started time.Time
	log     *slog.Logger
	reg     *telemetry.Registry
	tel     *svcTelemetry
	clock   func() time.Time // event-hub clock; time.Now outside tests

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue     chan *job
	queueOnce sync.Once // guards close(queue)
	workerWG  sync.WaitGroup
	jobWG     sync.WaitGroup // one count per accepted (non-cached) submission

	compiles      flightGroup[*core.Compiled] // keyed by compile key
	analyses      flightGroup[*core.Compiled] // keyed by analysis key
	analysisCache *lruCache[*core.Compiled]   // front ends, never run; each holds its shared IR
	compileCache  *lruCache[*core.Compiled]
	resultCache   *lruCache[[]byte]

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	fifo     []string        // registration order, for history pruning
	inflight map[string]*job // resultKey → live job (singleflight for runs)
	nextID   int64
	busy     int
	counters counters
}

// counters are the cumulative job-flow counts, exported on /metrics as
// tpiserved_jobs_total.
type counters struct {
	Submitted   int64
	Deduped     int64
	CacheServed int64
	Simulated   int64
	Done        int64
	Failed      int64
	Cancelled   int64
	Rejected    int64
}

// Metrics is a point-in-time copy of the job counters and the three
// cache tiers, for in-process callers; /metrics serves the same state.
type Metrics struct {
	Jobs          counters
	AnalysisCache CacheStats
	CompileCache  CacheStats
	ResultCache   CacheStats
}

// New builds a server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:          opts,
		started:       time.Now(),
		log:           opts.Logger,
		reg:           opts.Registry,
		clock:         time.Now,
		baseCtx:       ctx,
		baseCancel:    cancel,
		queue:         make(chan *job, opts.QueueDepth),
		analysisCache: newLRU[*core.Compiled](opts.CompileCacheEntries),
		compileCache:  newLRU[*core.Compiled](opts.CompileCacheEntries),
		resultCache:   newLRU[[]byte](opts.ResultCacheEntries),
		jobs:          make(map[string]*job),
		inflight:      make(map[string]*job),
	}
	s.tel = newSvcTelemetry(s.reg, s)
	for i := 0; i < opts.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// apiError carries an HTTP status for request-level failures.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func apiErrorf(code int, format string, args ...any) *apiError {
	return &apiError{code: code, msg: fmt.Sprintf(format, args...)}
}

// Submit resolves and accepts a run request: a result-cache hit returns
// an already-done job, an identical in-flight submission is collapsed
// onto the existing job (deduped=true), and otherwise a new job is
// registered and enqueued. The returned *apiError carries the HTTP
// status for rejections (400 bad request, 429 queue full, 503 draining).
func (s *Server) Submit(req *RunRequest) (jb *job, deduped bool, apiErr *apiError) {
	res, err := resolve(req)
	if err != nil {
		s.mu.Lock()
		s.counters.Rejected++
		s.mu.Unlock()
		return nil, false, apiErrorf(http.StatusBadRequest, "%v", err)
	}

	if b, ok := s.resultCache.Get(res.resultKey); ok {
		jb := newJob(s.newID(), res, context.Background(), 0, s.newHub())
		jb.cached = true
		jb.finish(StateDone, b, nil)
		s.mu.Lock()
		s.counters.Submitted++
		s.counters.CacheServed++
		s.counters.Done++
		s.register(jb)
		s.mu.Unlock()
		if s.logs(slog.LevelDebug) {
			s.log.Debug("job served from result cache", "job", jb.id, "program", res.program, "scheme", res.cfg.Scheme.String())
		}
		return jb, false, nil
	}

	s.mu.Lock()
	if s.draining {
		s.counters.Rejected++
		s.mu.Unlock()
		return nil, false, apiErrorf(http.StatusServiceUnavailable, "svc: server is draining")
	}
	s.counters.Submitted++
	if live, ok := s.inflight[res.resultKey]; ok && !live.terminal() {
		s.counters.Deduped++
		s.mu.Unlock()
		s.tel.coalesced.With("run").Inc()
		if s.logs(slog.LevelDebug) {
			s.log.Debug("submission coalesced onto in-flight job", "job", live.id)
		}
		return live, true, nil
	}
	// Re-check the result cache: runJob publishes the result before it
	// clears the in-flight entry, so a submission that lost the race
	// between the first cache probe and this lock still finds it here
	// instead of queueing a duplicate simulation.
	if b, ok := s.resultCache.Get(res.resultKey); ok {
		jb := newJob(s.newIDLocked(), res, context.Background(), 0, s.newHub())
		jb.cached = true
		jb.finish(StateDone, b, nil)
		s.counters.CacheServed++
		s.counters.Done++
		s.register(jb)
		s.mu.Unlock()
		return jb, false, nil
	}
	jb = newJob(s.newIDLocked(), res, s.baseCtx, s.opts.DefaultTimeout, s.newHub())
	s.register(jb)
	s.inflight[res.resultKey] = jb
	s.jobWG.Add(1) // under mu: serialized against Drain's Wait
	s.mu.Unlock()

	select {
	case s.queue <- jb:
	default:
		s.mu.Lock()
		s.counters.Rejected++
		s.counters.Submitted--
		s.unregister(jb)
		s.mu.Unlock()
		jb.cancel()
		s.jobWG.Done()
		return nil, false, apiErrorf(http.StatusTooManyRequests,
			"svc: queue full (%d pending)", s.opts.QueueDepth)
	}

	// Watchdog: a cancelled or timed-out job reaches its terminal state
	// within moments of the event even while still queued — the waiter
	// is released now, and the worker later discovers the job terminal
	// and skips it (or the running simulation aborts at the next epoch
	// barrier).
	go func() {
		select {
		case <-jb.ctx.Done():
			s.finishJob(jb, nil, fmt.Errorf("svc: job %s: %w", jb.id, jb.ctx.Err()))
		case <-jb.done:
		}
	}()
	if s.logs(slog.LevelDebug) {
		s.log.Debug("job enqueued", "job", jb.id, "program", res.program, "scheme", res.cfg.Scheme.String())
	}
	return jb, false, nil
}

// logs reports whether the logger takes records at level l. Callers
// check it before building a record's arguments, which are boxed even
// when the logger drops the record.
func (s *Server) logs(l slog.Level) bool {
	return s.log.Enabled(context.Background(), l)
}

// newHub builds the event hub for one job from the server's clock and
// heartbeat floor.
func (s *Server) newHub() *eventHub {
	return newEventHub(s.clock, s.opts.HeartbeatInterval)
}

// countersSnapshot copies the job-flow counters for scrape-time mirrors.
func (s *Server) countersSnapshot() counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// Wait blocks until the job is terminal or ctx is done, then returns its
// status.
func (s *Server) Wait(ctx context.Context, jb *job, deduped bool) JobStatus {
	select {
	case <-jb.done:
	case <-ctx.Done():
	}
	return jb.status(deduped)
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	return jb, ok
}

// Cancel cancels a job by id. Queued and running jobs reach the
// cancelled state promptly (the simulator aborts at the next epoch
// barrier, releasing its pooled caches); finished jobs are unaffected.
func (s *Server) Cancel(id string) (*job, bool) {
	jb, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	jb.cancel()
	return jb, true
}

// Drain stops accepting submissions and waits for in-flight and queued
// jobs to finish. If ctx expires first, the remaining jobs are cancelled
// (they abort at the next epoch barrier) and Drain still waits for them
// to wind down before stopping the workers. Always returns with the
// worker pool stopped.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.log.Info("drain started")

	finished := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = fmt.Errorf("svc: drain deadline: cancelling in-flight jobs: %w", ctx.Err())
		s.baseCancel()
		<-finished // abort-at-barrier makes this prompt
	}
	s.queueOnce.Do(func() { close(s.queue) })
	s.workerWG.Wait()
	s.baseCancel()
	s.log.Info("drain complete", "forced", err != nil)
	return err
}

// Registry returns the server's metric registry (the one passed in
// Options, or the private default) for co-registering process metrics
// and mounting on auxiliary listeners.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Close shuts down immediately: all jobs are cancelled and the pool is
// stopped. Equivalent to Drain with an already-expired context.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx) //nolint:errcheck // the deadline error is the expected path
}

// newID / newIDLocked mint job ids.
func (s *Server) newID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newIDLocked()
}

func (s *Server) newIDLocked() string {
	s.nextID++
	return fmt.Sprintf("r-%06d", s.nextID)
}

// register adds a job to the queryable set, pruning the oldest finished
// jobs beyond the history bound. Caller holds s.mu.
func (s *Server) register(jb *job) {
	s.jobs[jb.id] = jb
	s.fifo = append(s.fifo, jb.id)
	for len(s.jobs) > s.opts.JobHistory && len(s.fifo) > 0 {
		oldest, ok := s.jobs[s.fifo[0]]
		if ok && !oldest.terminal() {
			break // never evict a live job
		}
		if ok {
			delete(s.jobs, oldest.id)
		}
		s.fifo = s.fifo[1:]
	}
}

// unregister removes a job that never ran (queue-full rejection).
// Caller holds s.mu.
func (s *Server) unregister(jb *job) {
	delete(s.jobs, jb.id)
	if s.inflight[jb.res.resultKey] == jb {
		delete(s.inflight, jb.res.resultKey)
	}
	for i, id := range s.fifo {
		if id == jb.id {
			s.fifo = append(s.fifo[:i], s.fifo[i+1:]...)
			break
		}
	}
}

// worker consumes the queue until it is closed.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for jb := range s.queue {
		s.runJob(jb)
	}
}

// runJob executes one queued job end to end: compile (through the
// compile cache and singleflight), simulate under the job context,
// marshal the RunResult, and populate the result cache.
func (s *Server) runJob(jb *job) {
	defer s.jobWG.Done()
	s.mu.Lock()
	s.busy++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}()

	if jb.terminal() { // cancelled or timed out while queued
		s.clearInflight(jb)
		return
	}
	if err := jb.ctx.Err(); err != nil {
		s.finishJob(jb, nil, fmt.Errorf("svc: job %s: %w", jb.id, err))
		return
	}
	if !jb.start() {
		s.clearInflight(jb)
		return
	}
	jb.mu.Lock()
	queueWait := jb.started.Sub(jb.submitted)
	jb.mu.Unlock()
	s.tel.phaseSeconds.With(phaseQueue).Observe(queueWait.Seconds())

	jb.hub.publishPhase(jb.id, PhaseCompiling, msSince(jb.submitted, time.Now()))
	tc := time.Now()
	c, err := s.compile(jb.res)
	s.tel.phaseSeconds.With(phaseCompile).Observe(time.Since(tc).Seconds())
	if err != nil {
		s.finishJob(jb, nil, err)
		return
	}

	jb.hub.publishPhase(jb.id, PhaseRunning, msSince(jb.submitted, time.Now()))
	exp := s.tel.newRunExporter(jb.id, jb.res.cfg.Scheme.String(), jb.hub)
	t0 := time.Now()
	res, err := core.RunWithOptions(c, jb.res.cfg, core.RunOptions{
		Ctx:      jb.ctx,
		Progress: exp.sample,
		Obs:      jb.res.level,
	})
	s.tel.phaseSeconds.With(phaseRun).Observe(time.Since(t0).Seconds())
	if err != nil {
		s.finishJob(jb, nil, err)
		return
	}
	b, err := json.Marshal(core.NewRunResult(jb.res.program, jb.res.cfg, res.Stats, res.Report))
	if err != nil {
		s.finishJob(jb, nil, fmt.Errorf("svc: marshal result: %w", err))
		return
	}
	s.resultCache.Put(jb.res.resultKey, b)

	s.mu.Lock()
	s.counters.Simulated++
	s.mu.Unlock()

	s.finishJob(jb, b, nil)
}

// compile returns the job's compiled program, from the cache when
// present; concurrent misses on the same key compile once. A miss
// relayouts the program's front end from the analysis tier, analysing
// only when that misses too; concurrent misses at different layouts of
// one program share one analysis-tier lookup, so a cold program is
// analysed once whatever its line sizes. Runs only ever get a Relayout,
// never the analysis tier's entry itself. Every Relayout of one front
// end shares its closure IR, lowered on the first run of any of them,
// so a miss costs a layout and a binding of that IR, not a lowering;
// evicting a program from the compile tier frees only its layout and
// binding.
func (s *Server) compile(res *resolved) (*core.Compiled, error) {
	if c, ok := s.compileCache.Get(res.compileKey); ok {
		return c, nil
	}
	c, err, shared := s.compiles.Do(res.compileKey, func() (*core.Compiled, error) {
		fe, err, _ := s.analyses.Do(res.analysisKey, func() (*core.Compiled, error) {
			if fe, ok := s.analysisCache.Get(res.analysisKey); ok {
				return fe, nil
			}
			fe, err := core.Compile(res.src, res.copts)
			if err != nil {
				return nil, err
			}
			s.analysisCache.Put(res.analysisKey, fe)
			return fe, nil
		})
		if err != nil {
			return nil, err
		}
		c, err := fe.Relayout(res.copts)
		if err != nil {
			return nil, err
		}
		s.compileCache.Put(res.compileKey, c)
		return c, nil
	})
	if shared {
		s.tel.coalesced.With("compile").Inc()
	}
	return c, err
}

// finishJob moves a job to its terminal state (first caller wins),
// classifies the outcome for the counters, and clears the in-flight
// index entry.
func (s *Server) finishJob(jb *job, result []byte, err error) {
	state := StateDone
	switch {
	case errors.Is(err, context.Canceled):
		state = StateCancelled
	case err != nil:
		state = StateFailed
	}
	applied := jb.finish(state, result, err)
	s.clearInflight(jb)
	if !applied {
		return // someone else finished (and counted) it first
	}
	s.mu.Lock()
	switch state {
	case StateDone:
		s.counters.Done++
	case StateFailed:
		s.counters.Failed++
	case StateCancelled:
		s.counters.Cancelled++
	}
	s.mu.Unlock()
	if !s.logs(slog.LevelInfo) {
		return
	}
	st := jb.status(false)
	if err != nil {
		s.log.Info("job finished", "job", jb.id, "state", state,
			"queueMs", st.QueueMS, "runMs", st.RunMS, "error", err.Error())
		return
	}
	s.log.Info("job finished", "job", jb.id, "state", state,
		"program", st.Program, "scheme", st.Scheme,
		"queueMs", st.QueueMS, "runMs", st.RunMS, "cached", st.Cached)
}

// clearInflight removes the job's result-key reservation so later
// identical submissions start fresh (or hit the result cache).
func (s *Server) clearInflight(jb *job) {
	s.mu.Lock()
	if s.inflight[jb.res.resultKey] == jb {
		delete(s.inflight, jb.res.resultKey)
	}
	s.mu.Unlock()
}

// MetricsSnapshot copies the job counters and cache-tier statistics.
func (s *Server) MetricsSnapshot() Metrics {
	m := Metrics{Jobs: s.countersSnapshot()}
	m.AnalysisCache = s.analysisCache.Stats()
	m.CompileCache = s.compileCache.Stats()
	m.ResultCache = s.resultCache.Stats()
	return m
}
