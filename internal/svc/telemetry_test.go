package svc

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// scrape fetches path and parses it as Prometheus text.
func scrape(t *testing.T, url string) (*telemetry.Parsed, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("scrape %s: Content-Type %q, want %q", url, ct, telemetry.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	p, err := telemetry.ParseText(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("scrape %s does not parse: %v", url, err)
	}
	return p, string(raw)
}

// TestPrometheusScrape runs a few jobs and asserts the scrape carries
// the job-flow, phase-latency, cache, queue, and per-scheme simulation
// families with values consistent with the JSON metrics document.
func TestPrometheusScrape(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 2})
	for _, scheme := range []string{"BASE", "TPI"} {
		if code, st := postRun(t, hs, RunRequest{Kernel: "ocean", Scheme: scheme}); code != http.StatusOK || st.State != StateDone {
			t.Fatalf("%s: HTTP %d state %s error %q", scheme, code, st.State, st.Error)
		}
	}
	// A repeat submission exercises the result-cache path.
	if code, st := postRun(t, hs, RunRequest{Kernel: "ocean", Scheme: "TPI"}); code != http.StatusOK || !st.Cached {
		t.Fatalf("repeat: HTTP %d cached %v", code, st.Cached)
	}

	p, raw := scrape(t, hs.URL+"/metrics")
	m := s.MetricsSnapshot()

	intVal := func(name string, labels map[string]string) int64 {
		t.Helper()
		v, err := p.Value(name, labels)
		if err != nil {
			t.Fatalf("%v\nscrape:\n%s", err, raw)
		}
		return int64(v)
	}

	if got := intVal("tpiserved_jobs_total", map[string]string{"outcome": "submitted"}); got != m.Jobs.Submitted {
		t.Errorf("jobs submitted %d, JSON says %d", got, m.Jobs.Submitted)
	}
	if got := intVal("tpiserved_jobs_total", map[string]string{"outcome": "done"}); got != m.Jobs.Done {
		t.Errorf("jobs done %d, JSON says %d", got, m.Jobs.Done)
	}
	if got := intVal("tpiserved_cache_hits_total", map[string]string{"tier": "result"}); got != m.ResultCache.Hits {
		t.Errorf("result cache hits %d, JSON says %d", got, m.ResultCache.Hits)
	}
	if got := intVal("tpiserved_cache_misses_total", map[string]string{"tier": "compile"}); got != m.CompileCache.Misses {
		t.Errorf("compile cache misses %d, JSON says %d", got, m.CompileCache.Misses)
	}
	if got := intVal("tpiserved_cache_misses_total", map[string]string{"tier": "analysis"}); got != m.AnalysisCache.Misses {
		t.Errorf("analysis cache misses %d, JSON says %d", got, m.AnalysisCache.Misses)
	}
	if got := intVal("tpiserved_queue_depth", nil); got != 0 {
		t.Errorf("queue depth %d with no inflight work", got)
	}
	if got := intVal("tpiserved_workers", nil); got != 2 {
		t.Errorf("workers %d, want 2", got)
	}

	// Phase histograms: one observation per simulated job per phase.
	if got := intVal("tpiserved_job_phase_seconds_count", map[string]string{"phase": "run"}); got != m.Jobs.Simulated {
		t.Errorf("run-phase observations %d, want %d", got, m.Jobs.Simulated)
	}
	if p.Types["tpiserved_job_phase_seconds"] != "histogram" {
		t.Errorf("phase seconds type %q", p.Types["tpiserved_job_phase_seconds"])
	}

	// Per-scheme simulation counters advanced for both schemes.
	for _, scheme := range []string{"BASE", "TPI"} {
		if got := intVal("tpisim_run_epochs_total", map[string]string{"scheme": scheme}); got <= 0 {
			t.Errorf("%s epochs %d, want > 0", scheme, got)
		}
		if got := intVal("tpisim_reads_total", map[string]string{"scheme": scheme}); got <= 0 {
			t.Errorf("%s reads %d, want > 0", scheme, got)
		}
		if got := intVal("tpisim_read_misses_total", map[string]string{"scheme": scheme}); got <= 0 {
			t.Errorf("%s read misses %d, want > 0", scheme, got)
		}
	}
}

// TestMetricsEndpointFormats checks /metrics serves the Prometheus
// text format and that the retired JSON /v1/metrics route is gone.
func TestMetricsEndpointFormats(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})

	scrape(t, hs.URL+"/metrics") // checks the Prometheus Content-Type

	resp, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/metrics: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestSharedRegistry checks a caller-supplied registry is used and can
// carry co-registered process metrics.
func TestSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg, 0)
	_, hs := newTestServer(t, Options{Workers: 1, Registry: reg})
	p, _ := scrape(t, hs.URL+"/metrics")
	if _, err := p.Value("go_goroutines", nil); err != nil {
		t.Fatalf("runtime metrics not exposed through server scrape: %v", err)
	}
	if _, err := p.Value("tpiserved_workers", nil); err != nil {
		t.Fatalf("server metrics missing from shared registry: %v", err)
	}
}

// TestTelemetryDocNamesEveryFamily: docs/TELEMETRY.md is the metric
// catalogue, so every family the server registers must be named there
// in full, in backquotes (a labeled family may carry its label list).
func TestTelemetryDocNamesEveryFamily(t *testing.T) {
	reg := telemetry.NewRegistry()
	newTestServer(t, Options{Workers: 1, Registry: reg})
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "TELEMETRY.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range reg.Families() {
		if !regexp.MustCompile("`" + regexp.QuoteMeta(fam) + "[`{]").Match(doc) {
			t.Errorf("docs/TELEMETRY.md does not name registered family %s", fam)
		}
	}
}

// TestRunExporterDeltas: each per-run family advances by the difference
// between consecutive cumulative samples, and an aborted run's last
// sample counts one abort.
func TestRunExporterDeltas(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	exp := s.tel.newRunExporter("job-1", "HW", newEventHub(nil, 0))
	var p sim.Progress
	p.Epoch, p.Stats.Reads, p.Stats.ReadMisses[stats.MissCold] = 3, 10, 2
	exp.sample(p)
	p.Epoch, p.Stats.Reads, p.Stats.ReadMisses[stats.MissBypass] = 5, 25, 4
	p.Done, p.Aborted = true, true
	exp.sample(p)

	parsed, raw := scrape(t, hs.URL+"/metrics")
	for family, want := range map[string]float64{
		"tpisim_run_epochs_total":  5,
		"tpisim_reads_total":       25,
		"tpisim_read_misses_total": 6,
		"tpisim_run_aborts_total":  1,
	} {
		if got, err := parsed.Value(family, map[string]string{"scheme": "HW"}); err != nil || got != want {
			t.Errorf("%s = %v (%v), want %v\nscrape:\n%s", family, got, err, want, raw)
		}
	}
}
