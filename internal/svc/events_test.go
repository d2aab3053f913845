package svc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for heartbeat-cadence tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1000, 0)} }

// drain reads every event currently buffered on ch without blocking.
func drain(ch chan Event) []Event {
	var out []Event
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, e)
		default:
			return out
		}
	}
}

// TestEventHubOrdering checks that sequence numbers are strictly
// monotonic across phase, progress, and terminal events, both live and
// in the replay a late subscriber receives.
func TestEventHubOrdering(t *testing.T) {
	clk := newFakeClock()
	h := newEventHub(clk.Now, time.Millisecond)

	_, live, cancel := h.subscribe()
	defer cancel()

	h.publishPhase("r-1", StateQueued, 0)
	h.publishPhase("r-1", PhaseCompiling, 1)
	h.publishPhase("r-1", PhaseRunning, 2)
	clk.Advance(time.Second)
	h.publishProgress(ProgressEvent{Job: "r-1", Epoch: 10})
	h.publishPhase("r-1", StateDone, 3)
	h.publishTerminal(EventResult, json.RawMessage(`{"id":"r-1","state":"done"}`))

	got := drain(live)
	if len(got) != 6 {
		t.Fatalf("live events: got %d, want 6", len(got))
	}
	wantKinds := []string{EventPhase, EventPhase, EventPhase, EventProgress, EventPhase, EventResult}
	for i, e := range got {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind %s, want %s", i, e.Kind, wantKinds[i])
		}
		if i > 0 && e.Seq <= got[i-1].Seq {
			t.Errorf("event %d seq %d not after %d", i, e.Seq, got[i-1].Seq)
		}
	}
	if _, ok := <-live; ok {
		t.Fatal("live channel not closed after terminal event")
	}

	// A late subscriber replays phases + latest progress + terminal, in
	// seq order, and gets an immediately-closed channel.
	replay, ch, _ := h.subscribe()
	if len(replay) != 6 {
		t.Fatalf("replay: got %d events, want 6", len(replay))
	}
	for i := 1; i < len(replay); i++ {
		if replay[i].Seq <= replay[i-1].Seq {
			t.Errorf("replay %d seq %d not after %d", i, replay[i].Seq, replay[i-1].Seq)
		}
	}
	if replay[len(replay)-1].Kind != EventResult {
		t.Errorf("replay ends with %s, want %s", replay[len(replay)-1].Kind, EventResult)
	}
	if _, ok := <-ch; ok {
		t.Fatal("late subscriber channel not closed")
	}
}

// TestEventHubHeartbeatCadence checks the progress throttle under a
// fake clock: samples inside the heartbeat window are dropped, samples
// at or beyond it pass.
func TestEventHubHeartbeatCadence(t *testing.T) {
	clk := newFakeClock()
	h := newEventHub(clk.Now, 100*time.Millisecond)
	_, live, cancel := h.subscribe()
	defer cancel()

	h.publishProgress(ProgressEvent{Epoch: 1}) // first always passes
	for i := 2; i <= 9; i++ {
		clk.Advance(10 * time.Millisecond) // stays inside the window
		h.publishProgress(ProgressEvent{Epoch: int64(i)})
	}
	clk.Advance(20 * time.Millisecond) // 100ms since the first: passes
	h.publishProgress(ProgressEvent{Epoch: 10})
	clk.Advance(99 * time.Millisecond)
	h.publishProgress(ProgressEvent{Epoch: 11}) // dropped
	clk.Advance(1 * time.Millisecond)
	h.publishProgress(ProgressEvent{Epoch: 12}) // passes

	got := drain(live)
	var epochs []int64
	for _, e := range got {
		var p ProgressEvent
		if err := json.Unmarshal(e.Data, &p); err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, p.Epoch)
	}
	want := []int64{1, 10, 12}
	if fmt.Sprint(epochs) != fmt.Sprint(want) {
		t.Fatalf("delivered epochs %v, want %v", epochs, want)
	}
}

// TestEventHubSlowSubscriberEvicted checks that a subscriber that stops
// reading is disconnected instead of blocking the publisher.
func TestEventHubSlowSubscriberEvicted(t *testing.T) {
	h := newEventHub(nil, time.Millisecond)
	_, slow, _ := h.subscribe()
	for i := 0; i < subBuffer+1; i++ {
		h.publishPhase("r-1", PhaseRunning, float64(i))
	}
	n := 0
	for range slow { // channel must be closed (eviction), not open-blocked
		n++
	}
	if n != subBuffer {
		t.Fatalf("slow subscriber got %d events before eviction, want %d", n, subBuffer)
	}
	// The hub still works for a fresh subscriber.
	_, live, cancel := h.subscribe()
	defer cancel()
	h.publishPhase("r-1", StateDone, 0)
	if got := drain(live); len(got) != 1 {
		t.Fatalf("fresh subscriber got %d events, want 1", len(got))
	}
}

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	id    int64
	event string
	data  []byte
}

// readSSE parses frames until the stream closes or limit is reached.
func readSSE(t *testing.T, body *bufio.Scanner, limit int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	cur := sseFrame{id: -1}
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(line[len("data: "):])
		case line == "":
			if cur.event != "" {
				frames = append(frames, cur)
				if len(frames) >= limit {
					return frames
				}
			}
			cur = sseFrame{id: -1}
		}
	}
	return frames
}

// TestSSEStreamLifecycle drives the HTTP endpoint end to end: async
// submit, stream events, assert the phase order and the terminal result
// event, with strictly increasing ids.
func TestSSEStreamLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	code, st := postRun(t, hs, RunRequest{Kernel: "ocean", Async: true})
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d state %s error %q", code, st.State, st.Error)
	}

	resp, err := http.Get(hs.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	frames := readSSE(t, sc, 64)
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want at least queued + terminal", len(frames))
	}

	// Ids strictly increase; phase events appear in lifecycle order.
	var phases []string
	for i, f := range frames {
		if i > 0 && f.id <= frames[i-1].id {
			t.Errorf("frame %d id %d not after %d", i, f.id, frames[i-1].id)
		}
		if f.event == EventPhase {
			var p PhaseEvent
			if err := json.Unmarshal(f.data, &p); err != nil {
				t.Fatalf("phase payload: %v", err)
			}
			phases = append(phases, p.Phase)
		}
	}
	order := map[string]int{StateQueued: 0, PhaseCompiling: 1, PhaseRunning: 2, StateDone: 3}
	for i := 1; i < len(phases); i++ {
		if order[phases[i]] <= order[phases[i-1]] {
			t.Fatalf("phases out of order: %v", phases)
		}
	}
	if phases[0] != StateQueued || phases[len(phases)-1] != StateDone {
		t.Fatalf("phases %v, want queued first and done last", phases)
	}

	last := frames[len(frames)-1]
	if last.event != EventResult {
		t.Fatalf("last event %s, want %s", last.event, EventResult)
	}
	var final JobStatus
	if err := json.Unmarshal(last.data, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || len(final.Result) == 0 {
		t.Fatalf("terminal status state %s result %d bytes", final.State, len(final.Result))
	}
}

// TestSSECancelMidStream opens the stream on a long-running job, then
// cancels it and expects the stream to end with an error event carrying
// the cancelled state.
func TestSSECancelMidStream(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1, HeartbeatInterval: time.Millisecond})
	code, st := postRun(t, hs, RunRequest{Source: longSrc, Async: true})
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d state %s error %q", code, st.State, st.Error)
	}

	resp, err := http.Get(hs.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Cancel once the stream is open; the job aborts at the next barrier.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/runs/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	frames := readSSE(t, sc, 1024)
	if len(frames) == 0 {
		t.Fatal("no frames before stream close")
	}
	last := frames[len(frames)-1]
	if last.event != EventError {
		t.Fatalf("last event %s, want %s", last.event, EventError)
	}
	var final JobStatus
	if err := json.Unmarshal(last.data, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("terminal state %s, want %s", final.State, StateCancelled)
	}
}
