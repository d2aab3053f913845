package svc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// BenchmarkServiceThroughput measures POST /v1/runs end-to-end latency.
//
// cold: every request carries a distinct source program, so each one
// pays compile + simulate. warm: every request is identical, so after
// the first they are all result-cache hits. The p50-ms/op metric is the
// median per-request latency; the warm/cold median ratio is the payoff
// of the two-tier cache (recorded in CHANGES.md).
func BenchmarkServiceThroughput(b *testing.B) {
	bench := func(b *testing.B, reqFor func(i int) RunRequest) {
		s := New(Options{Workers: 2, ResultCacheEntries: 8192, CompileCacheEntries: 8192})
		hs := httptest.NewServer(s.Handler())
		defer func() {
			hs.Close()
			s.Close()
		}()

		lat := make([]float64, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(reqFor(i))
			if err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			resp, err := http.Post(hs.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
			if st.State != StateDone {
				b.Fatalf("request %d: state %s error %q", i, st.State, st.Error)
			}
		}
		b.StopTimer()
		sort.Float64s(lat)
		b.ReportMetric(lat[len(lat)/2], "p50-ms/op")
	}

	b.Run("cold", func(b *testing.B) {
		bench(b, func(i int) RunRequest {
			// A distinct constant per request defeats both cache tiers.
			// Sized like a small sweep point so compile + simulate
			// dominates, as it does for real cold traffic.
			return RunRequest{Scheme: "TPI", Source: fmt.Sprintf(`
program coldrun
param n = 96
array A[n][n]
array B[n][n]
proc main() {
  for t = 0 to 3 {
    doall i = 1 to n-2 {
      for j = 1 to n-2 {
        B[i][j] = 0.25 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]) + %d.0
      }
    }
    doall i = 1 to n-2 {
      for j = 1 to n-2 { A[i][j] = B[i][j] }
    }
  }
}
`, i)}
		})
	})
	b.Run("warm", func(b *testing.B) {
		req := RunRequest{Kernel: "ocean", Scheme: "TPI"}
		bench(b, func(int) RunRequest { return req })
	})
}
