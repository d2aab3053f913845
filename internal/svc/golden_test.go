package svc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
)

// checkGolden fails the test when got differs from testdata/name,
// naming the first differing line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs (%d vs %d lines):\n got %q", path, i+1, len(gl), len(wl), gl[i])
		}
	}
	t.Fatalf("%s: output is a prefix of the golden file (%d vs %d lines)", path, len(gl), len(wl))
}

// TestExpositionGolden pins the Prometheus scrape after a fixed job
// sequence: every HELP and TYPE line, and every tpisim_* sample. The
// simulated counters are deterministic, so the per-scheme and
// per-cluster values are too; the mesh run makes the cluster family
// appear.
func TestExpositionGolden(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	for _, req := range []RunRequest{
		{Kernel: "ocean", Scheme: "BASE"},
		{Kernel: "ocean", Scheme: "TPI"},
		{Kernel: "ocean", Scheme: "TARDIS"},
		{Kernel: "ocean", Scheme: "HW", Config: json.RawMessage(`{"Procs":16,"Topology":"mesh","ClusterSize":4}`)},
	} {
		if code, st := postRun(t, hs, req); code != http.StatusOK || st.State != StateDone {
			t.Fatalf("%s: HTTP %d state %s error %q", req.Scheme, code, st.State, st.Error)
		}
	}
	_, raw := scrape(t, hs.URL+"/metrics")
	var pinned strings.Builder
	for _, line := range strings.SplitAfter(raw, "\n") {
		if strings.HasPrefix(line, "# ") || strings.HasPrefix(line, "tpisim_") {
			pinned.WriteString(line)
		}
	}
	checkGolden(t, "exposition.golden", []byte(pinned.String()))
}

// TestProgressPayloadGolden pins the SSE progress payload — field order
// and values — of the final barrier sample of a fixed run. A clock that
// advances a second per read lets every sample through the heartbeat
// throttle, so the hub's latest progress event is the run's last.
func TestProgressPayloadGolden(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	clock := newFakeClock()
	hub := newEventHub(func() time.Time {
		clock.Advance(time.Second)
		return clock.Now()
	}, time.Millisecond)
	exp := s.tel.newRunExporter("job-1", "TPI", hub)

	k, err := bench.Get("ocean", bench.Params{N: 24, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Default(machine.SchemeTPI)
	c, err := core.CompileForConfig(k.Source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunWithOptions(c, cfg, core.RunOptions{Progress: exp.sample}); err != nil {
		t.Fatal(err)
	}
	if hub.progress == nil {
		t.Fatal("run published no progress event")
	}
	checkGolden(t, "progress.golden", append(append([]byte(nil), hub.progress.event().Data...), '\n'))
}

// sseVolatile matches what an event stream carries that varies run to
// run: job ids and the millisecond timings.
var sseVolatile = regexp.MustCompile(`r-[0-9]{6}|"(tMs|queueMs|runMs)":[-+.0-9e]+`)

// TestSSEReplayGolden pins the bytes of GET /v1/runs/{id}/events
// replayed after the job finished, for a simulated job, the same
// request served from the result cache, and a job whose program fails
// to compile. Ids and timings are normalised; everything else (event
// ids, kinds, field order, the progress sample and the result JSON) is
// compared byte for byte. An hour-long heartbeat floor lets only the
// run's first progress sample through.
func TestSSEReplayGolden(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1, HeartbeatInterval: time.Hour})
	var got bytes.Buffer
	for _, c := range []struct {
		name string
		req  RunRequest
	}{
		{"simulated", RunRequest{Kernel: "ocean", N: 16, Steps: 1, Scheme: "TPI"}},
		{"cached", RunRequest{Kernel: "ocean", N: 16, Steps: 1, Scheme: "TPI"}},
		{"failed", RunRequest{Source: "proc main() { A[0] = 1 }\n", Scheme: "HW"}},
	} {
		if _, st := postRun(t, hs, c.req); st.State != StateDone && st.State != StateFailed {
			t.Fatalf("%s: state %s error %q", c.name, st.State, st.Error)
		} else {
			resp, err := http.Get(hs.URL + "/v1/runs/" + st.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "# %s\n", c.name)
			got.Write(sseVolatile.ReplaceAllFunc(body, func(m []byte) []byte {
				if m[0] == 'r' {
					return []byte("r-ID")
				}
				return append(m[:bytes.IndexByte(m, ':')+1], '0')
			}))
		}
	}
	checkGolden(t, "sse_replay.golden", got.Bytes())
}
