package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/svc"
)

// Options sizes a Coordinator. Zero values select the defaults noted on
// each field.
type Options struct {
	// Workers are the fleet's base URLs; at least one is required.
	Workers []string
	// Window is the in-flight submission bound per worker (default 4).
	// The coordinator never has more than len(Workers)*Window jobs on
	// the wire, so a large grid cannot flood a worker's queue.
	Window int
	// MaxAttempts bounds how many times one job is (re)submitted before
	// it is recorded as failed (default 3). Attempts after a worker
	// death land on a different worker — that is the rebalance path.
	MaxAttempts int
	// DeathThreshold is how many consecutive failures mark a worker
	// dead (default 3). A dead worker's slots stop, the jobs routed to
	// it move to the shared queue, and it is not retried this sweep.
	DeathThreshold int
	// RequestTimeout bounds each synchronous submission, queue and
	// simulation time included (default 5m).
	RequestTimeout time.Duration
	// BackoffBase seeds the jittered exponential pause a worker slot
	// takes after a failure before pulling the next job (default 100ms,
	// capped by BackoffMax, default 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Client issues the HTTP traffic (default: an httpx client with
	// RequestTimeout and one transport-level retry; the coordinator owns
	// the higher-level retry/rebalance policy).
	Client *httpx.Client
	// Logger receives sweep progress logs (default: discard).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.DeathThreshold <= 0 {
		o.DeathThreshold = 3
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Minute
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.Client == nil {
		o.Client = httpx.New(httpx.Options{Timeout: o.RequestTimeout, Retries: 1})
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Result is one job's outcome, delivered exactly once per Seq.
type Result struct {
	Job      Job
	Worker   string // base URL of the worker that produced the outcome
	Attempts int
	// Status is the terminal job document; nil when the job failed
	// permanently without one (all attempts exhausted or fleet dead).
	Status *svc.JobStatus
	Err    error
}

// Stats aggregates one sweep.
type Stats struct {
	Jobs         int     `json:"jobs"`
	Done         int     `json:"done"`
	Failed       int     `json:"failed"`
	Cached       int     `json:"cached"`    // served from a worker's result cache
	Simulated    int     `json:"simulated"` // actually ran on a worker
	Retries      int     `json:"retries"`   // resubmissions after a failed attempt
	WorkerDeaths int     `json:"workerDeaths"`
	ElapsedMS    float64 `json:"elapsedMs"`
}

// CachedRate is the fraction of completed jobs served from a worker's
// result cache without a fresh simulation — what the warm-resubmission
// CI floor asserts on.
func (s Stats) CachedRate() float64 {
	if s.Done == 0 {
		return 0
	}
	return float64(s.Cached) / float64(s.Done)
}

// worker is one fleet member's scheduling state. consec and dead are
// guarded by the coordinator mutex; dying closes deadCh to wake slots
// blocked on the queue.
type worker struct {
	url    string
	idx    int // position in Coordinator.workers
	consec int
	dead   bool
	deadCh chan struct{}
}

// Coordinator shards sweeps across a tpiserved fleet. Worker liveness
// is remembered across calls on the same Coordinator: a worker marked
// dead during one sweep is skipped by later ones.
type Coordinator struct {
	opts   Options
	log    *slog.Logger
	client *httpx.Client

	mu      sync.Mutex
	workers []*worker
	live    int
	sem     chan struct{} // RunOne in-flight bound: len(workers)*Window
	rr      int           // RunOne round-robin cursor
}

// New validates the worker list and builds a coordinator.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("sweep: no workers")
	}
	c := &Coordinator{
		opts:   opts,
		log:    opts.Logger,
		client: opts.Client,
		sem:    make(chan struct{}, len(opts.Workers)*opts.Window),
	}
	for _, w := range opts.Workers {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		u, err := url.Parse(w)
		if err != nil {
			return nil, fmt.Errorf("sweep: worker %q: %w", w, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("sweep: worker %q: want an absolute http(s) URL", w)
		}
		c.workers = append(c.workers, &worker{url: w, idx: len(c.workers), deadCh: make(chan struct{})})
	}
	c.live = len(c.workers)
	return c, nil
}

// Workers returns the fleet's base URLs in configuration order.
func (c *Coordinator) Workers() []string {
	out := make([]string, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.url
	}
	return out
}

// routeTimeout bounds the cache queries route sends before a sweep.
const routeTimeout = 2 * time.Second

// route returns, for each job, the index of the live worker whose
// result cache holds the job's key, or -1 when none does. It asks every
// live worker in one concurrent POST /v1/cache each, without retries and
// under routeTimeout; a worker that fails to answer holds nothing (only
// submissions decide whether a worker is alive). A key held by several
// workers goes to the first of them. With fewer than two live workers
// there is nothing to choose, so route computes no key and sends no
// query.
func (c *Coordinator) route(ctx context.Context, jobs []Job) []int {
	holder := make([]int, len(jobs))
	for i := range holder {
		holder[i] = -1
	}
	var live []*worker
	c.mu.Lock()
	for _, w := range c.workers {
		if !w.dead {
			live = append(live, w)
		}
	}
	c.mu.Unlock()
	if len(live) < 2 {
		return holder
	}

	keys := make([]string, len(jobs))
	var q svc.CacheQuery
	seen := make(map[string]bool, len(jobs))
	for i := range jobs {
		k, err := svc.RequestKey(&jobs[i].Req)
		if err != nil {
			continue // the submission reports the error
		}
		keys[i] = k
		if !seen[k] {
			seen[k] = true
			q.Keys = append(q.Keys, k)
		}
	}
	if len(q.Keys) == 0 {
		return holder
	}
	body, err := json.Marshal(q)
	if err != nil {
		return holder
	}

	qctx, cancel := context.WithTimeout(ctx, routeTimeout)
	defer cancel()
	held := make([]map[string]bool, len(live))
	var wg sync.WaitGroup
	for i, w := range live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held[i] = c.heldKeys(qctx, w, body)
		}()
	}
	wg.Wait()

	for i, k := range keys {
		for j, w := range live {
			if held[j][k] {
				holder[i] = w.idx
				break
			}
		}
	}
	return holder
}

// heldKeys sends one cache query to w and returns the keys it holds; on
// any failure it returns none.
func (c *Coordinator) heldKeys(ctx context.Context, w *worker, body []byte) map[string]bool {
	status, resp, err := c.client.Once(ctx, http.MethodPost, w.url+"/v1/cache", "application/json", body)
	var q svc.CacheQuery
	if err == nil && status != http.StatusOK {
		err = &httpx.StatusError{Status: status, Body: resp}
	}
	if err == nil {
		err = json.Unmarshal(resp, &q)
	}
	if err != nil {
		c.log.Warn("cache query failed; routing nothing to the worker", "worker", w.url, "error", err.Error())
		return nil
	}
	held := make(map[string]bool, len(q.Keys))
	for _, k := range q.Keys {
		held[k] = true
	}
	return held
}

// task is one job's scheduling state inside a sweep.
type task struct {
	job      Job
	attempts int
}

// sweepRun is the per-Do state: the queues, the exactly-once result
// slots, and the completion signals.
type sweepRun struct {
	c *Coordinator

	mu      sync.Mutex
	shared  []*task         // jobs any worker may run
	own     [][]*task       // own[i]: jobs routed to workers[i], which holds their key
	wake    []chan struct{} // wake[i]: capacity 1, wakes workers[i]'s slots
	open    int             // jobs without a delivered result
	filled  []bool
	results []Result
	stats   Stats
	done    chan struct{} // closed when open reaches 0
	allDead chan struct{} // closed when the last live worker dies

	deadOnce sync.Once   // closes allDead exactly once
	cbCh     chan Result // nil unless a streaming callback is attached
}

// Do runs every job to a terminal outcome and returns the results in
// Seq order. A job whose result some live worker's cache already holds
// is sent to that worker (see route); every other job goes to whichever
// worker is free first. onResult (optional) streams each result as it
// lands, from the delivering worker's goroutine, serialized. Do returns an error
// only when the sweep could not complete — every worker died or ctx
// ended — and even then the returned slice has one Result per job (the
// undeliverable ones carry the error).
func (c *Coordinator) Do(ctx context.Context, jobs []Job, onResult func(Result)) ([]Result, Stats, error) {
	start := time.Now()
	r := &sweepRun{
		c:       c,
		own:     make([][]*task, len(c.workers)),
		wake:    make([]chan struct{}, len(c.workers)),
		open:    len(jobs),
		filled:  make([]bool, len(jobs)),
		results: make([]Result, len(jobs)),
		done:    make(chan struct{}),
		allDead: make(chan struct{}),
	}
	r.stats.Jobs = len(jobs)
	for i := range jobs {
		if jobs[i].Seq != i {
			return nil, r.stats, fmt.Errorf("sweep: job %d has seq %d; expand jobs with Spec.Expand", i, jobs[i].Seq)
		}
	}
	if len(jobs) == 0 {
		return r.results, r.stats, nil
	}
	for i := range r.wake {
		r.wake[i] = make(chan struct{}, 1)
	}
	for i, h := range c.route(ctx, jobs) {
		t := &task{job: jobs[i]}
		if h < 0 {
			r.shared = append(r.shared, t)
		} else {
			r.own[h] = append(r.own[h], t)
		}
	}

	// The callback runs on its own goroutine in delivery order; the
	// channel holds one slot per job, so a delivery never blocks on a
	// slow consumer.
	cbDone := make(chan struct{})
	if onResult != nil {
		r.cbCh = make(chan Result, len(jobs))
		go func() {
			defer close(cbDone)
			for res := range r.cbCh {
				onResult(res)
			}
		}()
	} else {
		close(cbDone)
	}

	c.mu.Lock()
	if c.live == 0 {
		c.mu.Unlock()
		return nil, r.stats, fmt.Errorf("sweep: every worker is dead")
	}
	var wg sync.WaitGroup
	for _, w := range c.workers {
		if w.dead {
			r.release(w) // it died after route asked it
			continue
		}
		for s := 0; s < c.opts.Window; s++ {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				r.slot(ctx, w)
			}(w)
		}
	}
	c.mu.Unlock()

	var sweepErr error
	select {
	case <-r.done:
	case <-ctx.Done():
		sweepErr = fmt.Errorf("sweep: %w", ctx.Err())
	case <-r.allDead:
		sweepErr = fmt.Errorf("sweep: every worker died (%d of %d jobs finished)", r.stats.Done+r.stats.Failed, len(jobs))
	}
	if sweepErr != nil {
		// Deliver the stragglers so the result set is complete.
		r.mu.Lock()
		for i := range r.results {
			if !r.filled[i] {
				r.deliverLocked(Result{Job: jobs[i], Err: sweepErr})
			}
		}
		r.mu.Unlock()
	}
	wg.Wait()
	if r.cbCh != nil {
		close(r.cbCh) // every job delivered exactly once by now
	}
	<-cbDone

	r.mu.Lock()
	r.stats.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	results, stats := r.results, r.stats
	r.mu.Unlock()
	return results, stats, sweepErr
}

// slot is one of a worker's Window scheduling loops: pull a task,
// submit it, classify, repeat. It exits when the queue drains, the
// context ends, or its worker dies.
func (r *sweepRun) slot(ctx context.Context, w *worker) {
	for {
		t := r.pop(ctx, w)
		if t == nil {
			return
		}
		t.attempts++
		st, retryable, err := r.c.submit(ctx, w, &t.job.Req)
		if err == nil {
			r.c.workerOK(w)
			r.deliver(Result{Job: t.job, Worker: w.url, Attempts: t.attempts, Status: st})
			continue
		}
		if !retryable {
			// The job itself is bad (4xx, failed state); the worker is fine.
			r.c.workerOK(w)
			r.deliver(Result{Job: t.job, Worker: w.url, Attempts: t.attempts, Status: st, Err: err})
			continue
		}
		r.c.log.Warn("attempt failed", "job", t.job.Label, "worker", w.url,
			"attempt", t.attempts, "error", err.Error())
		died, lastAlive := r.c.workerFailed(w)
		if died {
			r.c.log.Warn("worker marked dead", "worker", w.url)
			r.mu.Lock()
			r.stats.WorkerDeaths++
			r.mu.Unlock()
			if lastAlive {
				r.deadOnce.Do(func() { close(r.allDead) })
			}
		}
		if t.attempts >= r.c.opts.MaxAttempts {
			r.deliver(Result{Job: t.job, Worker: w.url, Attempts: t.attempts, Err: err})
		} else {
			r.requeue(t)
		}
		if died {
			r.release(w)
			return
		}
		// Pause this slot before it pulls again, so a flapping worker
		// backs off instead of burning through the queue.
		sleepCtx(ctx, r.c.backoff(w))
	}
}

// pop blocks until a task is available or the sweep is over for this
// slot (queue drained, worker dead, context done). A slot takes from its
// own worker's queue first, then from the shared queue; it never takes
// a job routed to another worker. While either queue still holds tasks
// after a pop, the worker's wake channel is re-armed so its sibling
// slots wake too.
func (r *sweepRun) pop(ctx context.Context, w *worker) *task {
	for {
		select {
		case <-w.deadCh:
			r.release(w)
			return nil
		default:
		}
		r.mu.Lock()
		if r.open == 0 {
			r.mu.Unlock()
			return nil
		}
		q := &r.own[w.idx]
		if len(*q) == 0 {
			q = &r.shared
		}
		if len(*q) > 0 {
			t := (*q)[0]
			*q = (*q)[1:]
			more := len(r.own[w.idx]) > 0 || len(r.shared) > 0
			r.mu.Unlock()
			if more {
				r.arm(w.idx)
			}
			return t
		}
		r.mu.Unlock()
		select {
		case <-r.wake[w.idx]:
		case <-r.done:
			return nil
		case <-w.deadCh:
			r.release(w)
			return nil
		case <-ctx.Done():
			return nil
		}
	}
}

// arm makes worker i's wake channel hot without blocking.
func (r *sweepRun) arm(i int) {
	select {
	case r.wake[i] <- struct{}{}:
	default:
	}
}

// share appends tasks to the shared queue and wakes every worker's
// slots, since any of them may take the tasks.
func (r *sweepRun) share(ts ...*task) {
	if len(ts) == 0 {
		return
	}
	r.mu.Lock()
	r.shared = append(r.shared, ts...)
	r.mu.Unlock()
	for i := range r.wake {
		r.arm(i)
	}
}

// requeue returns a failed task to the shared queue for any worker.
func (r *sweepRun) requeue(t *task) {
	r.mu.Lock()
	r.stats.Retries++
	r.mu.Unlock()
	r.share(t)
}

// release moves a dead worker's routed tasks to the shared queue. Each
// of its slots calls it on the way out; after the first it is a no-op.
func (r *sweepRun) release(w *worker) {
	r.mu.Lock()
	ts := r.own[w.idx]
	r.own[w.idx] = nil
	r.mu.Unlock()
	r.share(ts...)
}

// deliver records a terminal outcome. The first delivery for a Seq
// wins; duplicates (a timed-out submission whose original worker later
// answered) are dropped, which is what makes sweep output exactly-once.
func (r *sweepRun) deliver(res Result) {
	r.mu.Lock()
	r.deliverLocked(res)
	r.mu.Unlock()
}

func (r *sweepRun) deliverLocked(res Result) {
	seq := res.Job.Seq
	if r.filled[seq] {
		return
	}
	r.filled[seq] = true
	r.results[seq] = res
	switch {
	case res.Err != nil:
		r.stats.Failed++
	default:
		r.stats.Done++
		if res.Status.Cached {
			r.stats.Cached++
		} else {
			r.stats.Simulated++
		}
	}
	r.open--
	if r.open == 0 {
		close(r.done)
	}
	if r.cbCh != nil {
		r.cbCh <- res // capacity len(jobs): never blocks
	}
}

// submit posts one run synchronously and classifies the outcome.
// retryable=true means the failure is the worker's fault (or transient)
// and the job should move on; false with err set means the job itself
// is bad.
func (c *Coordinator) submit(ctx context.Context, w *worker, req *svc.RunRequest) (st *svc.JobStatus, retryable bool, err error) {
	status, body, err := c.client.PostJSON(ctx, w.url+"/v1/runs", req)
	if err != nil {
		return nil, true, err // transport-level: dead or unreachable worker
	}
	var js svc.JobStatus
	if jerr := json.Unmarshal(body, &js); jerr != nil {
		return nil, true, fmt.Errorf("worker %s: HTTP %d: undecodable body: %v", w.url, status, jerr)
	}
	switch {
	case status == http.StatusOK && js.State == svc.StateDone:
		return &js, false, nil
	case status == http.StatusBadRequest || status == http.StatusNotFound ||
		status == http.StatusRequestEntityTooLarge:
		return &js, false, fmt.Errorf("worker %s: HTTP %d: %s", w.url, status, statusError(&js, body))
	case js.State == svc.StateFailed:
		// A deterministic simulation failure would fail everywhere; do
		// not burn the other workers on it.
		return &js, false, fmt.Errorf("worker %s: job failed: %s", w.url, statusError(&js, body))
	default:
		// 5xx/429/503, cancelled (server-side deadline), or an
		// unexpected state: retry elsewhere.
		return &js, true, fmt.Errorf("worker %s: HTTP %d state %q: %s", w.url, status, js.State, statusError(&js, body))
	}
}

// statusError prefers the structured error field over the raw body.
func statusError(st *svc.JobStatus, raw []byte) string {
	if st != nil && st.Error != "" {
		return st.Error
	}
	s := strings.TrimSpace(string(raw))
	if len(s) > 256 {
		s = s[:256] + "...(truncated)"
	}
	return s
}

// workerOK resets a worker's consecutive-failure count.
func (c *Coordinator) workerOK(w *worker) {
	c.mu.Lock()
	w.consec = 0
	c.mu.Unlock()
}

// workerFailed counts a failure against w and reports whether this one
// crossed the death threshold, and whether it was the fleet's last
// live worker.
func (c *Coordinator) workerFailed(w *worker) (died, lastAlive bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.dead {
		return false, false
	}
	w.consec++
	if w.consec < c.opts.DeathThreshold {
		return false, false
	}
	w.dead = true
	close(w.deadCh)
	c.live--
	return true, c.live == 0
}

// backoff computes the jittered pause after a failure on w: uniform in
// [b/2, b] for b = min(BackoffBase << consec, BackoffMax).
func (c *Coordinator) backoff(w *worker) time.Duration {
	c.mu.Lock()
	n := w.consec
	c.mu.Unlock()
	d := c.opts.BackoffBase
	for i := 0; i < n && d < c.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	half := d / 2
	return half + rand.N(half+1)
}

// sleepCtx waits for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
