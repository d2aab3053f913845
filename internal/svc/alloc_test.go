package svc

import (
	"context"
	"encoding/json"
	"testing"
)

// keyedReq is a kernel request with config overrides: resolving it
// generates the kernel, merges the overrides and hashes three keys.
var keyedReq = RunRequest{Kernel: "trfd", N: 16, Steps: 1, Scheme: "HW",
	Config: json.RawMessage(`{"Procs":32,"LineWords":8}`)}

// TestRequestKeyAllocs bounds what resolving a request to its result
// key allocates: the sweep coordinator does it for every point, and
// Submit once more. Measured on go1.24: 17 allocations, against 27
// when every call generated all six kernels and built the key through
// a concatenated string and fmt.Sprint.
func TestRequestKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := RequestKey(&keyedReq); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 20
	if allocs > bound {
		t.Fatalf("RequestKey allocates %v times, want at most %d", allocs, bound)
	}
}

// TestCachedSubmitAllocs bounds a result-cache hit through Submit:
// resolve, a finished job and its event history, with no log record
// built and no event rendered, since nobody reads either. Measured on
// go1.24: 31 allocations, against 47 when resolve generated every
// kernel, the debug log's arguments were boxed for a logger that drops
// them and the terminal event was marshaled with nobody subscribed.
func TestCachedSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	s := New(Options{Workers: 1, JobHistory: 16})
	defer s.Close()
	submit := func() *job {
		jb, _, apiErr := s.Submit(&keyedReq)
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		return jb
	}
	if st := s.Wait(context.Background(), submit(), false); st.State != StateDone {
		t.Fatalf("warm-up run: state %s error %q", st.State, st.Error)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if !submit().cached {
			t.Fatal("submission missed the result cache")
		}
	})
	const bound = 36
	if allocs > bound {
		t.Fatalf("a cached Submit allocates %v times, want at most %d", allocs, bound)
	}
}
