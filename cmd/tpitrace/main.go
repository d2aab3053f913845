// Command tpitrace analyzes a binary event trace produced by
// `tpisim -btrace` (or core.RunWithOptions with a Trace writer): it
// replays the trace into the attributed report and prints epoch
// timelines, per-array miss heatmaps, and the top conservative-miss
// source references — the drill-down that explains *why* a scheme's
// misses happen, not just how many. With -text it renders the trace as
// one line per epoch barrier and per reference.
//
// Usage:
//
//	tpitrace run.trace                   # summary + epoch timeline
//	tpitrace -arrays -refs 10 run.trace  # per-array heatmap, top-10 refs
//	tpitrace -perfetto out.json run.trace # Chrome trace_event for Perfetto
//	tpitrace -json run.trace             # full attributed report as JSON
//	tpitrace -text run.trace             # E/R/W event lines
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/memsys"
	"repro/internal/obs"
)

func main() {
	epochs := flag.Int("epochs", 40, "max epoch-timeline rows to print (0 = all)")
	arrays := flag.Bool("arrays", false, "print the per-array miss heatmap table")
	procs := flag.Bool("procs", false, "print the per-processor attribution table")
	refs := flag.Int("refs", 10, "top-K conservative-miss source references (0 = skip)")
	hist := flag.Bool("hist", false, "print the miss-latency histogram")
	jsonOut := flag.Bool("json", false, "emit the full attributed report as JSON")
	perfetto := flag.String("perfetto", "", "write Chrome trace_event JSON to this file (load in Perfetto)")
	text := flag.Bool("text", false, "print the trace as E/R/W event lines instead of the report")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tpitrace [flags] trace-file")
		flag.PrintDefaults()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *text {
		err = writeText(os.Stdout, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	rep, err := obs.Replay(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}

	rep.WriteSummary(os.Stdout)
	fmt.Println()
	fmt.Println("epoch timeline:")
	rep.WriteEpochTimeline(os.Stdout, *epochs)
	if *arrays {
		fmt.Println()
		fmt.Println("per-array misses:")
		rep.WriteArrayTable(os.Stdout)
	}
	if *procs {
		fmt.Println()
		fmt.Println("per-processor reads:")
		rep.WriteProcTable(os.Stdout)
	}
	if *refs > 0 {
		fmt.Println()
		fmt.Printf("top %d conservative-miss references:\n", *refs)
		rep.WriteTopConservative(os.Stdout, *refs)
	}
	if *hist {
		fmt.Println()
		fmt.Println("read-miss latency histogram:")
		rep.WriteLatencyHistogram(os.Stdout)
	}
	if *perfetto != "" {
		pf, err := os.Create(*perfetto)
		if err != nil {
			fatal(err)
		}
		err = rep.WritePerfetto(pf)
		if cerr := pf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote Perfetto trace to %s\n", *perfetto)
	}
}

// writeText renders a binary trace as text: one line per epoch barrier
// and per memory reference. R/W lines carry the current epoch, so events
// are attributable without replaying E markers:
//
//	E <epoch>
//	R <epoch> <proc> <addr> <kind> <stall>
//	W <epoch> <proc> <addr> <crit> <stall>
//
// kind is the read's compiler mark (regular-read, time-read,
// bypass-read) and crit is 1 for critical-section stores. Reset,
// invalidation and trailer records print nothing.
func writeText(w io.Writer, r io.Reader) error {
	tr, err := obs.NewTraceReader(r)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var epoch int64
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch ev.Op {
		case obs.OpEpoch:
			epoch = ev.Epoch
			fmt.Fprintf(bw, "E %d\n", epoch)
		case obs.OpRead:
			fmt.Fprintf(bw, "R %d %d %d %s %d\n", epoch, ev.Proc, ev.Addr, memsys.ReadKind(ev.Kind), ev.Stall)
		case obs.OpWrite:
			crit := 0
			if ev.Crit {
				crit = 1
			}
			fmt.Fprintf(bw, "W %d %d %d %d %d\n", epoch, ev.Proc, ev.Addr, crit, ev.Stall)
		}
	}
	return bw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpitrace:", err)
	os.Exit(1)
}
