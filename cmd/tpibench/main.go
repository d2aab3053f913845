// Command tpibench is the repository's host-performance benchmark. It
// runs four workloads through the simulator's public layers, checks
// every output against the sequential oracle and committed golden
// digests, and prints each end-to-end metric as
//
//	workload metric value unit
//
// followed, in single-workload mode, by one JSON result line. A separate
// traced run (-trace spans.json) records spans around every call into a
// layer and prints the per-layer metrics instead. Every run does a fixed
// amount of work per workload, so two commits measure identical work.
// See README.md for the metric catalogue, the workloads and how to
// compare two commits.
//
// Usage, from the repository root:
//
//	bash cmd/tpibench/run.sh -seed 1 -out BENCH_main.json      # all workloads
//	bash cmd/tpibench/run.sh -workload trfd-stream -seed 3     # one workload
//	bash cmd/tpibench/run.sh -trace spans.json                 # traced run
//	bash cmd/tpibench/run.sh -compare A1.json ... -- B1.json ...
//	bash cmd/tpibench/run.sh -update-golden
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the settings of one workload run.
type options struct {
	seed   uint64
	trace  string // spans file of a traced run; "" for an untraced run
	quick  bool
	golden map[string]string
}

// goldenPath is where -update-golden writes, relative to the repository
// root; the binary embeds the file.
const goldenPath = "cmd/tpibench/testdata/golden.json"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "workload seed: cell order, kernel sizes and the sweep point stream")
	trace := fs.String("trace", "", "run the traced per-layer run instead of the end-to-end one and write its spans to this JSON file (every-workload mode: one file per workload)")
	out := fs.String("out", "", "every-workload mode: write the results to this BENCH_<label>.json file")
	quick := fs.Bool("quick", false, "tiny sizes, for smoke tests")
	updateGolden := fs.Bool("update-golden", false, "recompute the golden digests of every cell and write them to "+goldenPath)
	compare := fs.Bool("compare", false, "compare BENCH files, bounds from ./BENCHMARK.json: tpibench -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		return runCompare(fs.Args(), stdout, stderr)
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "tpibench: unexpected arguments %q\n", fs.Args())
		return 2
	case *updateGolden:
		if err := writeGolden(goldenPath); err != nil {
			fmt.Fprintf(stderr, "tpibench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "golden digests written to %s\n", goldenPath)
		return 0
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintf(stderr, "tpibench: %v\n", err)
		return 1
	}
	opts := options{seed: *seed, trace: *trace, quick: *quick, golden: golden}
	if *workload != "" {
		return runWorkload(*workload, opts, stdout, stderr)
	}
	return runAll(*out, opts, stdout, stderr)
}

// runWorkload runs one workload in this process and prints its metrics
// and the JSON result line.
func runWorkload(name string, opts options, stdout, stderr io.Writer) int {
	var (
		res result
		err error
	)
	if spec, ok := findSimSpec(name, opts.quick); ok {
		res, err = runSim(spec, opts, stdout, stderr)
	} else if name == "sweep-service" {
		res, err = runSweep(opts, stdout, stderr)
	} else {
		fmt.Fprintf(stderr, "tpibench: unknown workload %q (want %s)\n", name, strings.Join(workloadNames, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "tpibench: %s: %v\n", name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "tpibench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// benchFile is the BENCH_<label>.json document: one run of every
// workload.
type benchFile struct {
	Host      hostFacts         `json:"host"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Quick     bool              `json:"quick"`
	Workloads map[string]result `json:"workloads"`
}

// runAll runs every workload in its own child process, so max_rss_mb and
// the allocation counts belong to that workload alone, and writes the
// collected results to out.
func runAll(out string, opts options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "tpibench: %v\n", err)
		return 1
	}
	doc := benchFile{
		Host:      readHostFacts(),
		Seed:      opts.seed,
		Trace:     opts.trace != "",
		Quick:     opts.quick,
		Workloads: make(map[string]result),
	}
	code := 0
	for _, w := range workloadNames {
		childArgs := []string{"-seed", fmt.Sprint(opts.seed)}
		if opts.trace != "" {
			ext := filepath.Ext(opts.trace)
			childArgs = append(childArgs, "-trace", strings.TrimSuffix(opts.trace, ext)+"-"+w+ext)
		}
		if opts.quick {
			childArgs = append(childArgs, "-quick")
		}
		res, err := runChild(self, w, childArgs, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "tpibench: %s: %v\n", w, err)
			code = 1
			continue
		}
		doc.Workloads[w] = res
		if !res.Correct {
			code = 1
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "tpibench: write %s: %v\n", out, err)
			return 1
		}
	}
	return code
}

// runChild runs one workload in a child process, echoes its metric lines
// and returns its result line.
func runChild(self, workload string, args []string, stdout, stderr io.Writer) (result, error) {
	cmd := exec.Command(self, append([]string{"-workload", workload}, args...)...)
	cmd.Stderr = stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	for _, line := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, line)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr == nil {
			runErr = fmt.Errorf("no result line: %w", err)
		}
		return res, runErr
	}
	// The BENCH file keeps every printed metric: the declared ones at
	// full precision from the result line, the rest from their lines.
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != workload {
			continue
		}
		if _, ok := res.Metrics[f[1]]; ok {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			res.Metrics[f[1]] = metric{Value: v, Unit: f[3]}
		}
	}
	// A child that found incorrect outputs still prints its result line
	// (and exits 1); res.Correct carries that.
	return res, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line of a workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure is what one timed phase recorded.
type measure struct {
	opMS      []float64 // one latency per op
	nsPerRef  float64   // host ns per simulated reference; see README.md
	attempted int
	failed    int

	start, stop time.Time
	mem0, mem1  runtime.MemStats
	rt0, rt1    []float64 // readRuntime at start and stop
}

// readRuntime reads the runtime/metrics the go.* layer metrics use: GC
// cycles, GC CPU seconds and total CPU seconds.
func readRuntime() []float64 {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

func (m *measure) begin() {
	runtime.GC()
	m.rt0 = readRuntime()
	runtime.ReadMemStats(&m.mem0)
	m.start = time.Now()
}

func (m *measure) end() {
	m.stop = time.Now()
	runtime.ReadMemStats(&m.mem1)
	m.rt1 = readRuntime()
}

// fail records one failed op, reporting the first few.
func (m *measure) fail(stderr io.Writer, format string, args ...any) {
	m.failed++
	if m.failed <= 5 {
		fmt.Fprintf(stderr, "tpibench: FAIL "+format+"\n", args...)
	}
}

func (m *measure) wall() time.Duration { return m.stop.Sub(m.start) }

// endToEndMetrics derives the end-to-end catalogue.
func (m *measure) endToEndMetrics(setup []time.Duration) map[string]float64 {
	ops := float64(m.attempted)
	p95, _ := percentile(m.opMS, 95)
	return map[string]float64{
		"setup_s":       median(durations(setup, time.Second)),
		"ns_per_ref":    m.nsPerRef,
		"points_per_s":  ratio(ops, m.wall().Seconds()),
		"op_ms_p50":     median(m.opMS),
		"op_ms_p95":     p95,
		"allocs_per_op": ratio(float64(m.mem1.Mallocs-m.mem0.Mallocs), ops),
		"bytes_per_op":  ratio(float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc), ops),
		"max_rss_mb":    maxRSSMB(),
	}
}

// goMetrics derives the go.* layer metrics of an untraced phase.
func (m *measure) goMetrics(into map[string]float64) {
	a, b := m.rt0, m.rt1
	into["go.gc_cycles_per_op"] = ratio(b[0]-a[0], float64(m.attempted))
	into["go.gc_cpu_share"] = ratio(b[1]-a[1], b[2]-a[2])
}

// maxRSSMB is this process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// report prints the metric lines of a run (the catalogue metrics vals
// holds) and assembles its result from the declared ones.
func report(w io.Writer, workload string, defs []metricDef, vals map[string]float64, m *measure) result {
	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			continue
		}
		if d.declared {
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
		note := ""
		if d.name == "op_ms_p95" {
			_, beyond := percentile(m.opMS, 95)
			note = fmt.Sprintf(" (n=%d, %d beyond)", len(m.opMS), beyond)
		}
		fmt.Fprintf(w, "%s %s %.6g %s%s\n", workload, d.name, v, d.unit, note)
	}
	fmt.Fprintf(w, "%s fail_ratio %.6g fraction (%d of %d)\n", workload, ratio(float64(m.failed), float64(m.attempted)), m.failed, m.attempted)
	return res
}

// hostFacts identify the machine and build a BENCH file was measured on.
type hostFacts struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func readHostFacts() hostFacts {
	h := hostFacts{CPU: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Revision: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			h.Revision = rev + dirty
		}
	}
	return h
}
