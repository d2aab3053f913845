// Per-job live event streams: each job carries an eventHub that fans
// out lifecycle ("phase") events, throttled epoch-progress heartbeats,
// and a terminal result/error event to any number of SSE subscribers
// (GET /v1/runs/{id}/events). Phase and terminal events are retained and
// replayed to late subscribers, so attaching after completion still
// yields the full lifecycle; progress heartbeats are ephemeral — only
// the latest is replayed. An event keeps its payload value and is
// rendered to JSON once, when it is first delivered or replayed, so a
// job nobody watches never marshals its events. Publishing never blocks
// the simulator: sends are non-blocking and a subscriber that falls
// subBuffer events behind is disconnected (the SSE response ends; the
// client may resubscribe).
package svc

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Event kinds, used as the SSE `event:` field.
const (
	EventPhase    = "phase"    // lifecycle transition (PhaseEvent payload)
	EventProgress = "progress" // epoch heartbeat (ProgressEvent payload)
	EventResult   = "result"   // terminal success (JobStatus payload)
	EventError    = "error"    // terminal failure/cancel (JobStatus payload)
)

// Event is one entry in a job's event stream as a subscriber receives
// it. Seq is strictly increasing per job and becomes the SSE `id:`
// field; Data is a compact JSON payload (PhaseEvent, ProgressEvent, or
// JobStatus).
type Event struct {
	Seq  int64
	Kind string
	Data []byte
}

// record is a published event as the hub keeps it: the payload value,
// and its JSON once a subscriber has needed it.
type record struct {
	seq     int64
	kind    string
	payload any
	data    []byte
}

// event renders the record (the first time only) for a subscriber.
// Caller holds the hub's mu.
func (r *record) event() Event {
	if r.data == nil {
		r.data = mustJSON(r.payload)
		r.payload = nil
	}
	return Event{Seq: r.seq, Kind: r.kind, Data: r.data}
}

// PhaseEvent reports a job lifecycle transition. Phases are the job
// states plus the two worker-side sub-states of "running": a job moves
// queued → compiling → running → done|failed|cancelled (cache hits jump
// straight from queued to done).
type PhaseEvent struct {
	Job   string  `json:"job"`
	Phase string  `json:"phase"`
	TMS   float64 `json:"tMs"` // milliseconds since submission
}

// Worker-side phases (the JSON job states double as the rest).
const (
	PhaseCompiling = "compiling"
	PhaseRunning   = "running"
)

// ProgressEvent is a barrier-sampled snapshot of the running
// simulation. All numeric fields are cumulative over the run.
type ProgressEvent struct {
	Job       string `json:"job"`
	Epoch     int64  `json:"epoch"`
	Cycles    int64  `json:"cycles"`
	MaxEpochs int64  `json:"maxEpochs"`

	Reads         int64 `json:"reads"`
	Writes        int64 `json:"writes"`
	ReadMisses    int64 `json:"readMisses"`
	WriteMisses   int64 `json:"writeMisses"`
	Invalidations int64 `json:"invalidations"`

	StreamLoops     int64 `json:"streamLoops,omitempty"`
	StreamFallbacks int64 `json:"streamFallbacks,omitempty"`
	HostParEpochs   int64 `json:"hostparEpochs,omitempty"`
}

// subBuffer is the per-subscriber channel depth; a subscriber this far
// behind is evicted rather than back-pressuring the publisher.
const subBuffer = 64

// eventHub is one job's pub/sub state. The zero value is not usable;
// build with newEventHub.
type eventHub struct {
	clock  func() time.Time
	minGap time.Duration // minimum interval between progress events

	mu       sync.Mutex
	nextSeq  int64
	history  []record // phase + terminal events, replayed to subscribers
	progress *record  // latest progress event, replayed after history
	lastProg time.Time
	subs     map[chan Event]struct{}
	closed   bool
}

// newEventHub builds a hub. clock defaults to time.Now; minGap is the
// progress-heartbeat floor (defaults to 250ms when <= 0).
func newEventHub(clock func() time.Time, minGap time.Duration) *eventHub {
	if clock == nil {
		clock = time.Now
	}
	if minGap <= 0 {
		minGap = 250 * time.Millisecond
	}
	return &eventHub{clock: clock, minGap: minGap, subs: make(map[chan Event]struct{})}
}

// publishPhase records and fans out a lifecycle transition.
func (h *eventHub) publishPhase(job, phase string, tMS float64) {
	h.publishRetained(EventPhase, PhaseEvent{Job: job, Phase: phase, TMS: tMS})
}

// publishProgress fans out a heartbeat, dropping it when the previous
// one is newer than minGap. Progress events are not retained in the
// history (only the most recent survives for replay).
func (h *eventHub) publishProgress(ev ProgressEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	now := h.clock()
	if !h.lastProg.IsZero() && now.Sub(h.lastProg) < h.minGap {
		return
	}
	h.lastProg = now
	h.progress = &record{seq: h.nextSeq, kind: EventProgress, payload: ev}
	h.nextSeq++
	h.fanOutLocked(h.progress)
}

// publishTerminal records and fans out the final event, then closes
// every subscriber channel. Later publishes are no-ops; later
// subscribers get the full history replayed and a closed channel.
func (h *eventHub) publishTerminal(kind string, payload any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.appendLocked(kind, payload)
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}

// publishRetained appends a non-terminal event to the replay history.
func (h *eventHub) publishRetained(kind string, payload any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.appendLocked(kind, payload)
}

// appendLocked adds an event to the replay history and fans it out.
// Caller holds h.mu.
func (h *eventHub) appendLocked(kind string, payload any) {
	h.history = append(h.history, record{seq: h.nextSeq, kind: kind, payload: payload})
	h.nextSeq++
	h.fanOutLocked(&h.history[len(h.history)-1])
}

// fanOutLocked delivers r to every subscriber without blocking,
// rendering it only if there is one; a full subscriber is evicted.
// Caller holds h.mu.
func (h *eventHub) fanOutLocked(r *record) {
	if len(h.subs) == 0 {
		return
	}
	e := r.event()
	for ch := range h.subs {
		select {
		case ch <- e:
		default:
			delete(h.subs, ch)
			close(ch)
		}
	}
}

// subscribe returns the replayable past (phase events, the latest
// progress snapshot, and the terminal event if any, in seq order) plus
// a live channel for what follows. The channel is closed when the
// stream ends — immediately, for a job that already finished. cancel
// detaches early; it is idempotent and safe after the close.
func (h *eventHub) subscribe() (replay []Event, ch chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = make([]Event, 0, len(h.history)+1)
	for i := range h.history {
		replay = append(replay, h.history[i].event())
	}
	if h.progress != nil {
		replay = append(replay, h.progress.event())
		sort.Slice(replay, func(i, j int) bool { return replay[i].Seq < replay[j].Seq })
	}
	ch = make(chan Event, subBuffer)
	if h.closed {
		close(ch)
		return replay, ch, func() {}
	}
	h.subs[ch] = struct{}{}
	cancel = func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
	}
	return replay, ch, cancel
}

// mustJSON marshals payloads whose types cannot fail to encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("svc: event payload: %v", err))
	}
	return b
}
