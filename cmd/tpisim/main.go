// Command tpisim runs one program (a PFL file or a named built-in
// benchmark kernel) under one coherence scheme and prints the run
// statistics.
//
// Usage:
//
//	tpisim -bench ocean -scheme TPI
//	tpisim -scheme HW -procs 32 myprog.pfl
//	tpisim -bench trfd -scheme all      # compare the four schemes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	benchName := flag.String("bench", "", "built-in kernel (spec77 ocean flo52 qcd2 trfd arc2d)")
	schemeName := flag.String("scheme", "TPI", "coherence scheme: BASE, SC, TPI, HW, VC, TARDIS, TARDIS2, or all")
	procs := flag.Int("procs", 16, "number of processors")
	n := flag.Int("n", 32, "benchmark grid size")
	steps := flag.Int("steps", 2, "benchmark time steps")
	cacheKB := flag.Int64("cache", 64, "cache size in KB (4-byte words)")
	lineWords := flag.Int("line", 4, "line size in words")
	ttBits := flag.Int("timetag", 8, "timetag bits")
	migrate := flag.Bool("migrate", false, "rotate serial tasks across processors")
	seqc := flag.Bool("seqconsistency", false, "sequential instead of weak consistency")
	dyn := flag.Bool("dynamic", false, "self-schedule DOALL iterations")
	hostpar := flag.Int("hostpar", 0, "host goroutines per DOALL epoch (0/1 = sequential; results are bit-identical)")
	dirPtrs := flag.Int("dirpointers", 0, "limited-pointer directory DIR_NB(i); 0 = full map")
	writeBack := flag.Bool("writeback", false, "TPI write-back-at-boundary instead of write-through")
	l1KB := flag.Int64("l1", 0, "on-chip L1 size in KB for the two-level TPI implementation (0 = integrated)")
	topology := flag.String("topology", "multistage", "interconnect model: multistage, torus, or mesh (clustered 2-D mesh)")
	clusters := flag.Int("clusters", 0, "processors per mesh cluster (mesh topology only; 0 = default)")
	prefetch := flag.Bool("prefetch", false, "one-block-lookahead sequential prefetch (TPI)")
	padScalars := flag.Bool("padscalars", false, "give every scalar its own cache line")
	fastpath := flag.Bool("fastpath", true, "batch affine innermost loops through the coherence schemes (results are bit-identical; -fastpath=false is the kill switch)")
	explainFP := flag.Bool("explain-fastpath", false, "print the per-loop stream fast-path recognition report and exit (no simulation)")
	requireFP := flag.Bool("require-fastpath", false, "exit non-zero unless every innermost loop streamed and (with -hostpar > 1) every DOALL epoch sharded; prints the per-loop, per-scheme reason for each fallback")
	verify := flag.Bool("verify", true, "check results against the sequential oracle")
	obsLevel := flag.String("obs", "off", "instrumentation level: off, counters, or trace (trace needs -btrace)")
	btraceFile := flag.String("btrace", "", "write a binary event trace to this file (implies -obs trace; analyze or render as text with tpitrace)")
	jsonOut := flag.Bool("json", false, "emit a JSON array of per-scheme run results (stats schema + attributed report when -obs is on)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	switch {
	case *procs <= 0:
		fatal(fmt.Errorf("-procs must be positive, got %d", *procs))
	case *cacheKB <= 0:
		fatal(fmt.Errorf("-cache must be positive, got %d", *cacheKB))
	case *lineWords <= 0:
		fatal(fmt.Errorf("-line must be positive, got %d", *lineWords))
	case *benchName != "" && (*n < 2 || *steps < 1):
		fatal(fmt.Errorf("benchmark size out of range: -n %d -steps %d (want n >= 2, steps >= 1)", *n, *steps))
	case *hostpar < 0:
		fatal(fmt.Errorf("-hostpar must be >= 0, got %d", *hostpar))
	case *obsLevel == "trace" && *btraceFile == "":
		fatal(fmt.Errorf("-obs trace needs -btrace FILE to write the binary trace to"))
	}

	var src, program string
	switch {
	case *benchName != "":
		k, err := bench.Get(*benchName, bench.Params{N: *n, Steps: *steps})
		if err != nil {
			fatal(err)
		}
		src = k.Source
		program = *benchName
	case flag.NArg() == 1:
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(b)
		program = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: tpisim (-bench name | file.pfl) [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var schemes []machine.Scheme
	if strings.EqualFold(*schemeName, "all") {
		schemes = machine.AllSchemes
	} else {
		s, err := machine.ParseScheme(*schemeName)
		if err != nil {
			fatal(err)
		}
		schemes = []machine.Scheme{s}
	}

	level, err := obs.ParseLevel(*obsLevel)
	if err != nil {
		fatal(err)
	}
	if *explainFP {
		cfg := machine.Default(schemes[0])
		cfg.LineWords = *lineWords
		c, err := core.Compile(src, core.CompileOptions{
			Interproc:      cfg.Interproc,
			FirstReadReuse: cfg.FirstReadReuse,
			AlignWords:     int64(cfg.LineWords),
			PadScalars:     *padScalars,
		})
		if err != nil {
			fatal(err)
		}
		lp, err := c.Lowered()
		if err != nil {
			fatal(err)
		}
		explainFastPath(program, lp.StreamDiags())
		return
	}
	if *btraceFile != "" && len(schemes) > 1 {
		fatal(fmt.Errorf("-btrace needs a single -scheme"))
	}

	var results []core.RunResult
	fpFallbacks := 0
	compiled := map[core.CompileOptions]*core.Compiled{} // schemes sharing options share a compile
	for _, s := range schemes {
		cfg := machine.Default(s)
		cfg.FastPath = *fastpath
		cfg.Procs = *procs
		cfg.CacheWords = *cacheKB * 1024 / 4
		cfg.LineWords = *lineWords
		cfg.TimetagBits = *ttBits
		cfg.MigrateSerial = *migrate
		cfg.SeqConsistency = *seqc
		cfg.DynamicSched = *dyn
		cfg.HostParallel = *hostpar
		cfg.DirPointers = *dirPtrs
		cfg.TPIWriteBack = *writeBack
		cfg.L1Words = *l1KB * 1024 / 4
		cfg.Topology = *topology
		cfg.ClusterSize = *clusters
		cfg.Prefetch = *prefetch
		copts := core.CompileOptions{
			Interproc:      cfg.Interproc,
			FirstReadReuse: cfg.FirstReadReuse,
			AlignWords:     int64(cfg.LineWords),
			PadScalars:     *padScalars,
		}
		c := compiled[copts]
		if c == nil {
			if c, err = core.Compile(src, copts); err != nil {
				fatal(err)
			}
			compiled[copts] = c
		}
		opts := core.RunOptions{Obs: level, AuditFastPath: *requireFP, Verify: *verify}
		var btf *os.File
		if *btraceFile != "" {
			if btf, err = os.Create(*btraceFile); err != nil {
				fatal(err)
			}
			opts.Trace = btf
		}
		res, err := core.RunWithOptions(c, cfg, opts)
		if btf != nil {
			if cerr := btf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			results = append(results, core.NewRunResult(program, cfg, res.Stats, res.Report))
		} else {
			fmt.Println(res.Stats)
			if btf != nil {
				fmt.Printf("      binary trace written to %s (analyze with tpitrace)\n", *btraceFile)
			}
			if *verify {
				fmt.Println("      result verified against sequential oracle")
			}
		}
		if *requireFP {
			// stdout carries only the JSON array under -json
			report := os.Stdout
			if *jsonOut {
				report = os.Stderr
			}
			fpFallbacks += reportFastPathStatus(report, s, res.FastPath)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fatal(err)
		}
	}
	if *requireFP && fpFallbacks > 0 {
		fatal(fmt.Errorf("-require-fastpath: %d fallback site(s), see the per-scheme report above", fpFallbacks))
	}
}

// reportFastPathStatus prints, for one scheme's run, every runtime
// fast-path miss — a recognized stream loop that ran scalar, or a
// shardable DOALL epoch that ran sequentially — and returns the count.
// Structural non-candidates (unrecognized loops, seqOnly doalls) are
// listed as notes but don't count: they can never take the fast paths
// under any configuration (-explain-fastpath has the full detail).
func reportFastPathStatus(w io.Writer, s machine.Scheme, fps *core.FastPathStatus) int {
	streamed := 0
	for _, d := range fps.StreamDiags {
		switch {
		case d.OK:
			streamed++
		case d.Outer:
			// outer loops never stream; their innermost loops have their own diags
		default:
			fmt.Fprintf(w, "      [%s] note: %s: for %s at %s is not a stream candidate — %s (at %s)\n",
				s, d.Proc, d.Var, d.Pos, d.Reason, d.ReasonPos)
		}
	}
	for _, m := range fps.Misses {
		if m.Kind == "stream-loop" {
			fmt.Fprintf(w, "      [%s] %s: for %s at %s: ran scalar — %s\n", s, m.Proc, m.Var, m.Pos, m.Reason)
		} else {
			fmt.Fprintf(w, "      [%s] doall %s at %s: ran sequentially — %s\n", s, m.Var, m.Pos, m.Reason)
		}
	}
	if len(fps.Misses) == 0 {
		fmt.Fprintf(w, "      fast-path coverage: complete (%d stream loops)\n", streamed)
	}
	return len(fps.Misses)
}

// explainFastPath prints the lower-time stream recognition report: one
// line per innermost serial loop, with the blocking construct (and its
// position) for loops that stay scalar — the tool for spotting a kernel
// loop kept off the fast path by, say, one dynamic subscript.
func explainFastPath(program string, diags []sim.StreamDiag) {
	fmt.Printf("stream fast path: %s\n", program)
	if len(diags) == 0 {
		fmt.Println("  no serial loops in task bodies")
		return
	}
	streamed := 0
	for _, dg := range diags {
		if dg.OK {
			streamed++
			fmt.Printf("  %s: for %s at %s: STREAM (%d read streams, %d write streams)\n",
				dg.Proc, dg.Var, dg.Pos, dg.Reads, dg.Writes)
		} else {
			fmt.Printf("  %s: for %s at %s: scalar — %s (at %s)\n",
				dg.Proc, dg.Var, dg.Pos, dg.Reason, dg.ReasonPos)
		}
	}
	fmt.Printf("  %d/%d loops stream; every scheme variant runs recognized loops through stream "+
		"cursors — a recognized loop runs scalar only under -fastpath=false, or when an entry "+
		"guard fails (check with -require-fastpath)\n",
		streamed, len(diags))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpisim:", err)
	os.Exit(1)
}
