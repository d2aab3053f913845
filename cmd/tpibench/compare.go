package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// specFile is the part of BENCHMARK.json -compare reads: the bounds of
// the declared end-to-end metrics.
type specFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// specPath is the benchmark declaration, read from the repository root.
const specPath = "BENCHMARK.json"

// runCompare prints, for every workload and end-to-end metric, both
// sides' median and quartiles, the share of pairs side B wins and a
// verdict, with the bounds of specPath. A metric specPath does not
// declare can only read "improved" or "not gated". It exits 1 when any
// metric regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	var a, b []string
	side := &a
	for _, arg := range args {
		if arg == "--" {
			side = &b
			continue
		}
		*side = append(*side, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(stderr, "tpibench: usage: tpibench -compare A.json... -- B.json...")
		return 2
	}
	var spec specFile
	raw, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "tpibench: read %s: %v\n", specPath, err)
		return 1
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	sideA, err := loadBenchFiles(a)
	if err != nil {
		fmt.Fprintf(stderr, "tpibench: %v\n", err)
		return 1
	}
	sideB, err := loadBenchFiles(b)
	if err != nil {
		fmt.Fprintf(stderr, "tpibench: %v\n", err)
		return 1
	}
	for _, s := range []struct {
		name  string
		files []benchFile
	}{{"A", sideA}, {"B", sideB}} {
		h := s.files[0].Host
		fmt.Fprintf(stdout, "# %s: %d runs; cpu %q; GOMAXPROCS %d; %s; revision %s\n",
			s.name, len(s.files), h.CPU, h.GOMAXPROCS, h.GoVersion, h.Revision)
	}
	code := 0
	for _, w := range workloadNames {
		failA, failB := failures(sideA, w), failures(sideB, w)
		if failB > failA {
			fmt.Fprintf(stdout, "%s failed ops: A %d, B %d: regressed\n", w, failA, failB)
			code = 1
		}
		for _, m := range endToEnd {
			va, vb := values(sideA, w, m.name), values(sideB, w, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			bound, declared := bounds[m.name]
			if !declared {
				bound = math.Inf(1)
			}
			v, wins, pairs := verdict(va, vb, m.higherBetter, bound)
			if !declared && v == "unchanged" {
				v = "not gated"
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Fprintf(stdout, "%s %s %s: A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  B wins %d/%d  %s\n",
				w, m.name, m.unit, a2, a1, a3, b2, b1, b3, wins, pairs, v)
			if v == "regressed" {
				code = 1
			}
		}
	}
	return code
}

func loadBenchFiles(paths []string) ([]benchFile, error) {
	var out []benchFile
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f benchFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func values(files []benchFile, workload, metric string) []float64 {
	var out []float64
	for _, f := range files {
		if r, ok := f.Workloads[workload]; ok {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func failures(files []benchFile, workload string) int {
	n := 0
	for _, f := range files {
		n += f.Workloads[workload].Failed
	}
	return n
}

// verdict applies the comparison rules to one metric, with run i of A
// paired with run i of B:
//
//   - improved: B wins at least 9 of 10 pairs (ties count for neither)
//     and the medians differ by more than A's interquartile range;
//   - regressed: B's median is worse than A's by more than bound (a
//     share of A's median);
//   - unresolved: otherwise, when A's own interquartile range is wider
//     than the bound, unless every run of B beats every run of A;
//   - unchanged: otherwise.
func verdict(a, b []float64, higherBetter bool, bound float64) (v string, wins, pairs int) {
	better := func(x, y float64) bool { // x reads better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	a1, am, a3 := quartiles(a)
	_, bm, _ := quartiles(b)
	gain := am - bm // how much better B's median reads
	if higherBetter {
		gain = -gain
	}
	scale := math.Abs(am) * bound
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case 10*wins >= 9*pairs && gain > a3-a1:
		return "improved", wins, pairs
	case -gain > scale:
		return "regressed", wins, pairs
	case a3-a1 > scale && !allBetter:
		return "unresolved", wins, pairs
	}
	return "unchanged", wins, pairs
}
