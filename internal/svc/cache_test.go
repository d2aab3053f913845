package svc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLRUEviction(t *testing.T) {
	c := newLRU[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		got, ok := c.Get(k)
		if !ok || got != want {
			t.Fatalf("%s = %d,%v want %d", k, got, ok, want)
		}
	}
	st := c.Stats()
	if st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("hits %d misses %d, want 3/1", st.Hits, st.Misses)
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := newLRU[string](2)
	c.Put("a", "1")
	c.Put("b", "2")
	c.Put("a", "1") // refresh, not insert
	c.Put("c", "3") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived")
	}
	if v, ok := c.Get("a"); !ok || v != "1" {
		t.Fatalf("a = %q,%v", v, ok)
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := newLRU[int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%48)
				c.Put(k, i)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Size > 32 {
		t.Fatalf("size %d over capacity", st.Size)
	}
}

func TestSingleflightCollapses(t *testing.T) {
	var g flightGroup[int]
	var calls atomic.Int64
	gate := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := g.Do("key", func() (int, error) {
				calls.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Release the one real call only after the other seven callers have
	// joined it; closing the gate earlier lets a late caller start a
	// fresh execution once the first one has finished.
	for calls.Load() == 0 || g.joined("key") < len(results)-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}

	// The key is released after completion: a later Do runs fresh.
	_, _, shared := g.Do("key", func() (int, error) {
		calls.Add(1)
		return 7, nil
	})
	if shared || calls.Load() != 2 {
		t.Fatalf("second Do shared=%v calls=%d, want fresh call", shared, calls.Load())
	}
}

// joined reports how many callers have joined the in-flight execution
// for key (0 when none is in flight).
func (g *flightGroup[V]) joined(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.dups
	}
	return 0
}

func TestSingleflightPropagatesError(t *testing.T) {
	var g flightGroup[int]
	wantErr := fmt.Errorf("boom")
	_, err, _ := g.Do("k", func() (int, error) { return 0, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v", err)
	}
}

// queryCache posts keys to POST /v1/cache and returns the held subset.
func queryCache(t *testing.T, hs *httptest.Server, keys ...string) []string {
	t.Helper()
	body, err := json.Marshal(CacheQuery{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/cache", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cache: HTTP %d", resp.StatusCode)
	}
	var held CacheQuery
	if err := json.NewDecoder(resp.Body).Decode(&held); err != nil {
		t.Fatal(err)
	}
	if held.Keys == nil {
		t.Fatal(`POST /v1/cache answered null keys, want a list`)
	}
	return held.Keys
}

func TestCacheEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 2})
	req := RunRequest{Kernel: "ocean", Scheme: "TPI"}
	if code, st := postRun(t, hs, req); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("seed run: HTTP %d state %s error %q", code, st.State, st.Error)
	}
	key, err := RequestKey(&req)
	if err != nil {
		t.Fatal(err)
	}
	missKey := strings.Repeat("0", 64)
	if got := queryCache(t, hs, missKey, key); len(got) != 1 || got[0] != key {
		t.Fatalf("held keys %v, want [%s]", got, key)
	}
	if got := queryCache(t, hs, missKey); len(got) != 0 {
		t.Fatalf("held keys %v for a miss, want none", got)
	}
	if got := queryCache(t, hs); len(got) != 0 {
		t.Fatalf("held keys %v for an empty query, want none", got)
	}
}

// TestCacheEndpointDoesNotCountTierStats pins the Peek contract: routing
// queries must move neither the result tier's hit/miss counters, which
// /metrics exports as the tier's hit rate, nor the job counters.
func TestCacheEndpointDoesNotCountTierStats(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	req := RunRequest{Kernel: "trfd", Scheme: "TPI"}
	if code, st := postRun(t, hs, req); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("seed run: HTTP %d state %s", code, st.State)
	}
	key, err := RequestKey(&req)
	if err != nil {
		t.Fatal(err)
	}
	before := s.MetricsSnapshot()
	queryCache(t, hs, key, strings.Repeat("a", 64)) // one hit, one miss
	after := s.MetricsSnapshot()
	if after.ResultCache.Hits != before.ResultCache.Hits || after.ResultCache.Misses != before.ResultCache.Misses {
		t.Fatalf("cache query moved tier stats: before %+v after %+v", before.ResultCache, after.ResultCache)
	}
	if after.Jobs != before.Jobs {
		t.Fatalf("cache query moved job counters: before %+v after %+v", before.Jobs, after.Jobs)
	}
}
