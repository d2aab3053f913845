package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// TestMain lets the test binary stand in for tpibench when the
// every-workload mode re-executes itself once per workload.
func TestMain(m *testing.M) {
	if os.Getenv("TPIBENCH_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// lastResult parses the JSON result line a workload run ends with.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func TestQuickAllWorkloads(t *testing.T) {
	t.Setenv("TPIBENCH_AS_MAIN", "1")
	out := filepath.Join(t.TempDir(), "BENCH_quick.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		res, ok := doc.Workloads[w]
		if !ok {
			t.Fatalf("%s: no result", w)
		}
		// A run's work is fixed: every block runs each cell once.
		want := quickSweeps * sweepPoints
		if spec, ok := findSimSpec(w, true); ok {
			want = spec.blocks * len(spec.ns) * len(spec.kernels) * len(spec.variants)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != want {
			t.Errorf("%s: correct=%v failed=%d attempted=%d, want %d attempted", w, res.Correct, res.Failed, res.Attempted, want)
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s %s: got %+v (present %v), want a positive value in %s", w, d.name, m, ok, d.unit)
			}
			if !strings.Contains(stdout.String(), w+" "+d.name+" ") {
				t.Errorf("stdout lacks the %s %s line", w, d.name)
			}
		}
		if !strings.Contains(stdout.String(), w+" fail_ratio 0 fraction") {
			t.Errorf("stdout lacks %s fail_ratio 0", w)
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	spec, _ := findSimSpec("mixed-kernels", false)
	order := func(seed uint64) [][][]opRef {
		rng := seededRand(seed, spec.name)
		return [][][]opRef{spec.schedule(rng), spec.schedule(rng)}
	}
	points := func(seed uint64) []point {
		ps := newPointStream(seed, false)
		out := make([]point, 64)
		for i := range out {
			out[i] = ps.next()
		}
		return out
	}
	if !reflect.DeepEqual(order(7), order(7)) || !reflect.DeepEqual(points(7), points(7)) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(order(7), order(8)) || reflect.DeepEqual(points(7), points(8)) {
		t.Error("different seeds gave identical inputs")
	}
	// Every block runs each kernel once at every N, whatever the seed.
	for _, pass := range order(9)[0] {
		if len(pass) != len(spec.kernels)*len(spec.variants) {
			t.Fatalf("pass has %d ops", len(pass))
		}
	}
	for k := range spec.kernels {
		seen := map[int]int{}
		for _, pass := range order(9)[0] {
			for _, o := range pass {
				if o.kernel == k {
					seen[o.n]++
				}
			}
		}
		for n := range spec.ns {
			if seen[n] != len(spec.variants) {
				t.Errorf("kernel %d ran N index %d %d times in a block, want %d", k, n, seen[n], len(spec.variants))
			}
		}
	}
}

func TestFlippedGoldenFails(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for k, v := range g {
		if strings.HasPrefix(k, "quick/trfd-stream/") && !flipped {
			g[k] = strings.Repeat("0", len(v))
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("golden file has no quick trfd-stream cell")
	}
	var stdout, stderr bytes.Buffer
	code := runWorkload("trfd-stream", options{seed: 1, quick: true, golden: g}, &stdout, &stderr)
	if code == 0 {
		t.Error("a flipped golden digest exited 0")
	}
	res := lastResult(t, stdout.String())
	if res.Correct || res.Failed == 0 {
		t.Errorf("a flipped golden digest gave correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestTracedDigestsEqualUntraced(t *testing.T) {
	for _, spec := range simSpecs(true) {
		for _, kn := range spec.kernels {
			k, err := bench.Get(kn, bench.Params{N: spec.ns[0], Steps: spec.steps})
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.Compile(k.Source, core.DefaultCompileOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range spec.variants {
				plain, err := core.Run(c, v.cfg)
				if err != nil {
					t.Fatal(err)
				}
				traced, _, err := newTracer().tracedRun(c, v.cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				if digest(plain) != digest(traced) {
					t.Errorf("%s %s %s: traced stats differ from core.Run", spec.name, kn, v.name)
				}
			}
		}
	}
}

func TestTracedRun(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.json")
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w, "-quick", "-trace", spans}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			res := lastResult(t, stdout.String())
			for _, d := range perLayer {
				m, ok := res.Metrics[d.name]
				if d.declared && (!ok || m.Unit != d.unit) {
					t.Errorf("%s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
				}
				if !d.declared && ok {
					t.Errorf("%s is in the result line but not declared", d.name)
				}
			}
			for _, name := range []string{"pfl.parse_us", "core.new_system_us", "sim.run_self_ms", "memsys.refs_per_run"} {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			if !strings.Contains(stdout.String(), w+" trace_overhead ") {
				t.Error("no tracing overhead line")
			}
			if w == "sweep-service" {
				for _, d := range perLayer {
					if !strings.Contains(stdout.String(), w+" "+d.name+" ") {
						t.Errorf("stdout lacks %s", d.name)
					}
				}
			}
			raw, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct{ Spans []span }
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
				t.Fatalf("spans file: %v, %d spans", err, len(doc.Spans))
			}
			for _, s := range doc.Spans {
				if s.End < s.Start || s.Parent >= s.ID {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"cmd/tpibench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []def, catalogue []metricDef) {
		var want []metricDef
		for _, d := range catalogue {
			if d.declared {
				want = append(want, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range got {
			better := map[bool]string{false: "lower", true: "higher"}[want[i].higherBetter]
			if d.Name != want[i].name || d.Unit != want[i].unit || d.Better != better {
				t.Errorf("%s[%d] = %s %s %s, want %s %s %s", kind, i, d.Name, d.Unit, d.Better, want[i].name, want[i].unit, better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	for _, d := range doc.EndToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) || d.Bound > doc.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v, want in (0, 0.25] and at most setup_s's", d.Name, d.Bound)
		}
	}
	check("per_layer", doc.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 85, 115, 100, 60, 140, 90, 110, 100}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"faster", base, scaled(0.8), false, "improved"},
		{"slower", base, scaled(1.2), false, "regressed"},
		{"same", base, base, false, "unchanged"},
		{"within bound", base, scaled(1.05), false, "unchanged"},
		{"more throughput", base, scaled(1.2), true, "improved"},
		{"noisy parent", noisy, noisy, false, "unresolved"},
	} {
		if got, _, _ := verdict(tc.a, tc.b, tc.higherBetter, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
