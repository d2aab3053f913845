// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// paper-vs-measured record).
//
// Usage:
//
//	experiments                 # run all experiments at the paper size
//	experiments -exp E3 -exp E6 # run selected experiments
//	experiments -quick          # small workload (seconds, for smoke runs)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/exper"
)

type expFlag []string

func (e *expFlag) String() string     { return strings.Join(*e, ",") }
func (e *expFlag) Set(v string) error { *e = append(*e, v); return nil }

func main() {
	var selected expFlag
	flag.Var(&selected, "exp", "experiment id to run (repeatable), e.g. E3; default all")
	quick := flag.Bool("quick", false, "small workload for a fast smoke run")
	procs := flag.Int("procs", 16, "number of processors")
	hostpar := flag.Int("hostpar", 0, "host goroutines per DOALL epoch inside each run (0/1 = sequential; results are bit-identical)")
	fastpath := flag.Bool("fastpath", true, "batch affine innermost loops through the coherence schemes (results are bit-identical; -fastpath=false is the kill switch)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown tables")
	jsonOut := flag.Bool("json", false, "emit the results as schema-versioned JSON (see exper.Results)")
	validate := flag.String("validate", "", "validate a results JSON file against the schema and exit")
	outFile := flag.String("out", "", "also write the output to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		r, err := exper.ValidateResults(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid (schema v%d, %d experiments)\n", *validate, r.SchemaVersion, len(r.Experiments))
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return
			}
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
			f.Close()
		}()
	}

	p := bench.PaperParams()
	if *quick {
		p = bench.DefaultParams()
	}
	if *procs <= 0 {
		fmt.Fprintf(os.Stderr, "experiments: -procs must be positive, got %d\n", *procs)
		os.Exit(1)
	}
	if *hostpar < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -hostpar must be >= 0, got %d\n", *hostpar)
		os.Exit(1)
	}
	s := exper.NewSuite(p, *procs)
	s.HostPar = *hostpar
	s.NoFastPath = !*fastpath

	start := time.Now()
	if err := s.RunSelected(selected, *markdown, *jsonOut, os.Stdout, os.Stderr, *outFile); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "total %v\n", time.Since(start).Round(time.Millisecond))
}
