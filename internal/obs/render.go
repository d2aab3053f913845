package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// table is a minimal aligned-column text renderer for the tpitrace CLI.
type table struct {
	cols []string
	rows [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(w io.Writer) {
	width := make([]int, len(t.cols))
	for i, c := range t.cols {
		width[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", width[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.cols)
	for _, r := range t.rows {
		line(r)
	}
}

func n(v int64) string { return fmt.Sprintf("%d", v) }

// classCells appends one cell per miss class, in report order.
func classCells(cells []string, c stats.ClassCounts) []string {
	for _, ci := range stats.ClassTable {
		cells = append(cells, n(c[ci.Class]))
	}
	return cells
}

// columns returns the column heads pre, one per miss class, then post.
func columns(pre []string, post ...string) []string {
	for _, ci := range stats.ClassTable {
		pre = append(pre, ci.Head)
	}
	return append(pre, post...)
}

// WriteSummary prints the run header: scheme, size, totals.
func (r *Report) WriteSummary(w io.Writer) {
	m := &r.Meta
	fmt.Fprintf(w, "scheme=%s procs=%d line=%dw mem=%dw", m.Scheme, m.Procs, m.LineWords, m.MemWords)
	if m.Program != "" {
		fmt.Fprintf(w, " program=%s", m.Program)
	}
	fmt.Fprintln(w)
	var reads, writes, rh, wh int64
	for _, e := range r.Epochs {
		reads += e.Reads
		writes += e.Writes
		rh += e.ReadHits
		wh += e.WriteHits
	}
	rm, wm := r.ReadMissTotals(), r.WriteMissTotals()
	fmt.Fprintf(w, "epochs=%d cycles=%d reads=%d (hits %d, misses %d) writes=%d (hits %d, misses %d)\n",
		len(r.Epochs), r.TotalCycles, reads, rh, rm.Total(), writes, wh, wm.Total())
	fmt.Fprint(w, "read misses:")
	for _, ci := range stats.ClassTable {
		fmt.Fprintf(w, " %s=%d", ci.Summary, rm[ci.Class])
	}
	fmt.Fprintln(w)
}

// WriteEpochTimeline prints the per-epoch miss-class table; maxRows <= 0
// prints every epoch, otherwise the head and tail around an ellipsis.
func (r *Report) WriteEpochTimeline(w io.Writer, maxRows int) {
	t := &table{cols: columns([]string{"epoch", "cycle", "reads", "rhit"}, "wmiss", "inval", "reset")}
	row := func(e *EpochRow) {
		cells := classCells([]string{n(e.Epoch), n(e.StartCycle), n(e.Reads), n(e.ReadHits)}, e.ReadMisses)
		cells = append(cells, n(e.WriteMisses.Total()), n(e.Invalidations), n(e.ResetInvalidations))
		t.add(cells...)
	}
	if maxRows > 0 && len(r.Epochs) > maxRows {
		head := maxRows / 2
		tail := maxRows - head
		for i := range r.Epochs[:head] {
			row(&r.Epochs[i])
		}
		t.add("...")
		for i := range r.Epochs[len(r.Epochs)-tail:] {
			row(&r.Epochs[len(r.Epochs)-tail+i])
		}
	} else {
		for i := range r.Epochs {
			row(&r.Epochs[i])
		}
	}
	t.render(w)
}

// WriteArrayTable prints the per-array miss heatmap: which variables the
// misses land on, decomposed by class.
func (r *Report) WriteArrayTable(w io.Writer) {
	t := &table{cols: columns([]string{"array", "reads", "writes"}, "wmiss")}
	for _, a := range r.Arrays {
		cells := classCells([]string{a.Name, n(a.Reads), n(a.Writes)}, a.ReadMisses)
		t.add(append(cells, n(a.WriteMisses.Total()))...)
	}
	t.render(w)
}

// WriteTopConservative prints the k source references paying the most
// conservative misses — the compiler-marking drill-down.
func (r *Report) WriteTopConservative(w io.Writer, k int) {
	rows := r.TopConservative(k)
	if len(rows) == 0 {
		fmt.Fprintln(w, "no conservative misses")
		return
	}
	t := &table{cols: []string{"ref", "pos", "proc", "array", "mark", "execs", "consv", "allmiss"}}
	for _, rr := range rows {
		mark := rr.Mark
		if rr.Window > 0 {
			mark = fmt.Sprintf("%s(w=%d)", mark, rr.Window)
		}
		t.add(n(int64(rr.ID)), rr.Pos, rr.Proc, rr.Array, mark, n(rr.Count),
			n(rr.Misses[stats.MissConservative]), n(rr.Misses.Total()))
	}
	t.render(w)
}

// WriteProcTable prints the per-processor attribution.
func (r *Report) WriteProcTable(w io.Writer) {
	t := &table{cols: columns([]string{"proc", "reads", "rhit", "stall"})}
	for _, p := range r.Procs {
		t.add(classCells([]string{n(int64(p.Proc)), n(p.Reads), n(p.ReadHits), n(p.ReadStallCycles)}, p.ReadMisses)...)
	}
	t.render(w)
}

// WriteLatencyHistogram prints the fixed-bucket read-miss latency
// histogram.
func (r *Report) WriteLatencyHistogram(w io.Writer) {
	t := &table{cols: []string{"cycles", "misses"}}
	for _, b := range r.Latency {
		if b.Count == 0 {
			continue
		}
		rng := fmt.Sprintf("%d-%d", b.Lo, b.Hi)
		if b.Hi < 0 {
			rng = fmt.Sprintf(">=%d", b.Lo)
		}
		t.add(rng, n(b.Count))
	}
	t.render(w)
}

// perfettoEvent is one Chrome trace_event record.
type perfettoEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
	S    string         `json:"s,omitempty"`
}

// WritePerfetto emits the epoch timeline as Chrome trace_event JSON
// (load the file in Perfetto or chrome://tracing). One slice per epoch,
// counter tracks for the miss classes, and instants for reset phases;
// timestamps are simulated cycles interpreted as microseconds.
func (r *Report) WritePerfetto(w io.Writer) error {
	var evs []perfettoEvent
	for i := range r.Epochs {
		e := &r.Epochs[i]
		end := r.TotalCycles
		if i+1 < len(r.Epochs) {
			end = r.Epochs[i+1].StartCycle
		}
		dur := end - e.StartCycle
		if dur < 1 {
			dur = 1
		}
		evs = append(evs, perfettoEvent{
			Name: fmt.Sprintf("epoch %d", e.Epoch),
			Ph:   "X", Ts: e.StartCycle, Dur: dur, Pid: 0, Tid: 0,
			Args: map[string]any{
				"reads": e.Reads, "writes": e.Writes,
				"readMisses": e.ReadMisses.Total(), "invalidations": e.Invalidations,
			},
		})
		classes := make(map[string]any, stats.NumMissClasses)
		for _, ci := range stats.ClassTable {
			classes[ci.Name] = e.ReadMisses[ci.Class]
		}
		evs = append(evs, perfettoEvent{Name: "read misses", Ph: "C", Ts: e.StartCycle, Pid: 0, Args: classes})
		if e.TimetagResets > 0 {
			evs = append(evs, perfettoEvent{
				Name: "timetag reset", Ph: "i", Ts: e.StartCycle, Pid: 0, Tid: 0, S: "g",
				Args: map[string]any{"invalidatedWords": e.ResetInvalidations},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"scheme": r.Meta.Scheme, "program": r.Meta.Program, "procs": r.Meta.Procs,
		},
	})
}
