// Package svc is the simulation-as-a-service subsystem: a long-lived job
// server that amortizes what the one-shot CLIs rebuild on every
// invocation. It exposes an HTTP JSON API (POST /v1/runs, GET and DELETE
// /v1/runs/{id}, GET /v1/runs/{id}/events, POST /v1/cache,
// GET /v1/healthz) and a Prometheus GET /metrics, backed by
//
//   - a bounded worker pool over a bounded submission queue,
//   - a content-addressed three-tier cache — an analysis cache keyed by
//     sha256(source, Interproc, FirstReadReuse) holding each program's
//     front end (parse, check, sections, marks), a compile cache keyed by
//     sha256(source, CompileOptions) holding *core.Compiled at one layout
//     (each a Relayout of its analysis entry, so a new line size or
//     scalar padding costs a layout and a binding of the front end's
//     one closure IR, not a new analysis or lowering),
//     and a result cache keyed by sha256(compile key, canonical
//     machine.Config, obs.Level, program label) holding core.RunResult
//     JSON,
//   - singleflight collapsing of concurrent identical submissions, so a
//     thundering herd of equal requests costs one simulation, and
//   - cancellable, deadline-carrying runs: the simulator checks the job
//     context at every epoch barrier and a cancelled run releases its
//     pooled caches through the memsys.Releaser hook.
//
// The daemon wrapper is cmd/tpiserved; cmd/tpisweep is its client,
// sharding sweeps across a fleet of daemons (internal/sweep).
// docs/SERVICE.md is the API reference.
package svc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
)

// RunRequest is the POST /v1/runs payload. Exactly one of Source or
// Kernel selects the program; everything else is optional.
type RunRequest struct {
	// Source is inline PFL source text.
	Source string `json:"source,omitempty"`
	// Kernel names a built-in benchmark kernel (see internal/bench),
	// sized by N and Steps (defaults 24 and 2, the unit-test size).
	Kernel string `json:"kernel,omitempty"`
	N      int    `json:"n,omitempty"`
	Steps  int    `json:"steps,omitempty"`

	// Scheme is the coherence scheme (BASE, SC, TPI, HW, VC, TARDIS,
	// TARDIS2; default
	// TPI). The machine defaults for that scheme seed the config.
	Scheme string `json:"scheme,omitempty"`
	// Config holds machine.Config field overrides as a JSON object
	// (Go field names, unknown fields rejected), merged over
	// machine.Default(scheme). Overriding Scheme here is an error —
	// set it at the top level.
	Config json.RawMessage `json:"config,omitempty"`
	// PadScalars is the compile-time false-sharing mitigation
	// (tpisim -padscalars).
	PadScalars bool `json:"padScalars,omitempty"`

	// Obs selects the instrumentation level: "off" (default) or
	// "counters". "trace" needs a local trace sink and is not served.
	Obs string `json:"obs,omitempty"`

	// TimeoutMS bounds the job from submission (queue time included).
	// 0 applies the server default.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`

	// Async makes POST return 202 with the job id immediately instead
	// of waiting for completion; poll GET /v1/runs/{id}.
	Async bool `json:"async,omitempty"`
}

// resolved is a validated request bound to concrete simulation inputs
// and its three cache identities.
type resolved struct {
	program string // label stored in the RunResult ("ocean", "pfl")
	src     string
	cfg     machine.Config
	copts   core.CompileOptions
	level   obs.Level
	timeout time.Duration

	analysisKey string
	compileKey  string
	resultKey   string
}

// resolve validates a request and computes its cache keys.
func resolve(req *RunRequest) (*resolved, error) {
	r := &resolved{}
	switch {
	case req.Source != "" && req.Kernel != "":
		return nil, fmt.Errorf("svc: request has both source and kernel; pick one")
	case req.Source != "":
		r.program = "pfl"
		r.src = req.Source
	case req.Kernel != "":
		n, steps := req.N, req.Steps
		if n == 0 {
			n = bench.DefaultParams().N
		}
		if steps == 0 {
			steps = bench.DefaultParams().Steps
		}
		if n < 2 || steps < 1 {
			return nil, fmt.Errorf("svc: kernel size out of range: n=%d steps=%d", n, steps)
		}
		k, err := bench.Get(req.Kernel, bench.Params{N: n, Steps: steps})
		if err != nil {
			return nil, fmt.Errorf("svc: %w", err)
		}
		r.program = k.Name
		r.src = k.Source
	default:
		return nil, fmt.Errorf("svc: request needs source or kernel")
	}

	schemeName := req.Scheme
	if schemeName == "" {
		schemeName = "TPI"
	}
	scheme, err := machine.ParseScheme(schemeName)
	if err != nil {
		return nil, fmt.Errorf("svc: %w", err)
	}
	cfg := machine.Default(scheme)
	if len(req.Config) > 0 {
		cfg, err = machine.ParseConfig(req.Config, cfg)
		if err != nil {
			return nil, fmt.Errorf("svc: %w", err)
		}
		if cfg.Scheme != scheme {
			return nil, fmt.Errorf("svc: config overrides Scheme; set it at the top level")
		}
	}
	r.cfg = cfg.Canonical()

	switch strings.ToLower(req.Obs) {
	case "", "off":
		r.level = obs.LevelOff
	case "counters":
		r.level = obs.LevelCounters
	case "trace":
		return nil, fmt.Errorf("svc: obs level %q needs a local trace sink; use tpisim -btrace", req.Obs)
	default:
		return nil, fmt.Errorf("svc: unknown obs level %q (want off or counters)", req.Obs)
	}

	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("svc: negative timeoutMs %d", req.TimeoutMS)
	}
	r.timeout = time.Duration(req.TimeoutMS) * time.Millisecond

	r.copts = core.CompileOptions{
		Interproc:      r.cfg.Interproc,
		FirstReadReuse: r.cfg.FirstReadReuse,
		AlignWords:     int64(r.cfg.LineWords),
		PadScalars:     req.PadScalars,
	}
	r.analysisKey = core.AnalysisKey(r.src, r.copts)
	r.compileKey = core.CompileKey(r.src, r.copts)
	cfgJSON, err := r.cfg.CanonicalJSON()
	if err != nil {
		return nil, fmt.Errorf("svc: %w", err)
	}
	r.resultKey = resultKey(r.compileKey, sha256.Sum256(cfgJSON), r.level, r.program)
	return r, nil
}

// resultKey is the hex sha256 of the compile key, the hex sha256 of the
// canonical config JSON (machine.Config.Hash), the obs level in decimal
// and the program label, joined by NULs. The parts are laid out in a
// stack buffer; the key string is the only allocation.
func resultKey(compileKey string, cfgSum [sha256.Size]byte, level obs.Level, program string) string {
	var buf [256]byte
	b := append(buf[:0], compileKey...)
	b = hex.AppendEncode(append(b, 0), cfgSum[:])
	b = strconv.AppendInt(append(b, 0), int64(level), 10)
	b = append(append(b, 0), program...)
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// RequestKey resolves a request to its content-addressed result key:
// the hex sha256 the server caches the marshaled RunResult under.
// The sweep coordinator asks each worker which keys it holds
// (POST /v1/cache) and routes every held job to its holder. The request
// is fully validated on the way.
func RequestKey(req *RunRequest) (string, error) {
	res, err := resolve(req)
	if err != nil {
		return "", err
	}
	return res.resultKey, nil
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobStatus is the JSON view of a job returned by POST and GET.
type JobStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Program string `json:"program"`
	Scheme  string `json:"scheme"`
	// Cached means the result was served from the result cache without
	// running a simulation.
	Cached bool `json:"cached,omitempty"`
	// Deduped means this submission was collapsed onto an already
	// in-flight identical job (whose id it shares).
	Deduped bool    `json:"deduped,omitempty"`
	Error   string  `json:"error,omitempty"`
	QueueMS float64 `json:"queueMs"`
	RunMS   float64 `json:"runMs"`
	// Result is the core.RunResult JSON of a done job — byte-identical
	// to what a local run of the same (program, config, obs) produces.
	Result json.RawMessage `json:"result,omitempty"`
}

// job is one submitted run. The immutable fields are set at creation;
// everything mutable is guarded by mu. done is closed exactly once when
// the job reaches a terminal state.
type job struct {
	id        string
	res       *resolved
	submitted time.Time
	ctx       context.Context
	cancel    context.CancelFunc
	hub       *eventHub // live event stream; never nil

	mu       sync.Mutex
	state    string
	err      error
	result   []byte
	cached   bool
	started  time.Time
	finished time.Time
	done     chan struct{}
}

func newJob(id string, res *resolved, base context.Context, defaultTimeout time.Duration, hub *eventHub) *job {
	timeout := res.timeout
	if timeout == 0 {
		timeout = defaultTimeout
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(base, timeout)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	j := &job{
		id:        id,
		res:       res,
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		hub:       hub,
		state:     StateQueued,
		done:      make(chan struct{}),
	}
	hub.publishPhase(id, StateQueued, 0)
	return j
}

// start transitions queued → running; it reports false if the job is
// already terminal (cancelled while queued).
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state; the first call wins and
// reports true, later calls are no-ops reporting false. The winning
// call publishes the terminal phase and result/error events and closes
// the event stream (the hub lock is a leaf — safe under j.mu).
func (j *job) finish(state string, result []byte, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone, StateFailed, StateCancelled:
		return false
	}
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.state = state
	j.result = result
	j.err = err
	j.finished = time.Now()
	j.cancel() // release the timer; the run is over
	j.hub.publishPhase(j.id, state, msSince(j.submitted, j.finished))
	kind := EventResult
	if state != StateDone {
		kind = EventError
	}
	j.hub.publishTerminal(kind, j.statusLocked(false))
	close(j.done)
	return true
}

// terminal reports whether the job has finished, in any way.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
}

// status renders the job's JSON view. deduped marks responses for
// submissions that attached to this job rather than creating it.
func (j *job) status(deduped bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(deduped)
}

// statusLocked renders the status with j.mu already held.
func (j *job) statusLocked(deduped bool) JobStatus {
	st := JobStatus{
		ID:      j.id,
		State:   j.state,
		Program: j.res.program,
		Scheme:  j.res.cfg.Scheme.String(),
		Cached:  j.cached,
		Deduped: deduped,
		Result:  j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	switch {
	case j.started.IsZero():
		st.QueueMS = msSince(j.submitted, time.Now())
	default:
		st.QueueMS = msSince(j.submitted, j.started)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = msSince(j.started, end)
	}
	return st
}

func msSince(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Millisecond)
}
