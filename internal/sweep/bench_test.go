package sweep

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/svc"
)

// benchFleet builds n workers without the testing.T cleanup plumbing.
func benchFleet(n int) (urls []string, shutdown func()) {
	var hss []*httptest.Server
	var svs []*svc.Server
	for i := 0; i < n; i++ {
		// One sim slot per worker: fleet size is then the only
		// parallelism axis, as on a real multi-host fleet.
		s := svc.New(svc.Options{Workers: 1})
		hs := httptest.NewServer(s.Handler())
		urls = append(urls, hs.URL)
		hss = append(hss, hs)
		svs = append(svs, s)
	}
	return urls, func() {
		for i := range hss {
			hss[i].Close()
			svs[i].Close()
		}
	}
}

func benchSpec() Spec {
	return Spec{
		Kernels: []string{"ocean", "trfd"},
		Schemes: []string{"BASE", "TPI", "HW"},
		N:       []int{16, 24},
	}
}

// BenchmarkSweepThroughput measures one full sweep of a 12-point grid
// per iteration: cold (fresh fleet each iteration — every point
// simulates) vs warm (fleet reused — every point is a cache hit), at 1
// and 2 in-process workers. The cold 2-worker/1-worker ratio is the
// sharding speedup; the warm numbers are the coordinator+HTTP floor.
// CHANGES.md records the measured medians.
func BenchmarkSweepThroughput(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d/cold", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				urls, shutdown := benchFleet(n)
				coord, err := New(Options{Workers: urls})
				if err != nil {
					b.Fatal(err)
				}
				jobs, err := benchSpec().Expand()
				if err != nil {
					b.Fatal(err)
				}
				_, st, err := coord.Do(context.Background(), jobs, nil)
				if err != nil || st.Done != len(jobs) {
					b.Fatalf("err=%v stats=%+v", err, st)
				}
				shutdown()
			}
		})
		b.Run(fmt.Sprintf("workers=%d/warm", n), func(b *testing.B) {
			urls, shutdown := benchFleet(n)
			defer shutdown()
			coord, err := New(Options{Workers: urls})
			if err != nil {
				b.Fatal(err)
			}
			warm, err := benchSpec().Expand()
			if err != nil {
				b.Fatal(err)
			}
			if _, st, err := coord.Do(context.Background(), warm, nil); err != nil || st.Done != len(warm) {
				b.Fatalf("warm-up: err=%v stats=%+v", err, st)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jobs, err := benchSpec().Expand()
				if err != nil {
					b.Fatal(err)
				}
				_, st, err := coord.Do(context.Background(), jobs, nil)
				if err != nil || st.Done != len(jobs) {
					b.Fatalf("err=%v stats=%+v", err, st)
				}
			}
		})
	}
}
