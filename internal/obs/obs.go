// Package obs is the simulator's instrumentation layer: attributed
// per-epoch / per-processor / per-array / per-source-reference miss-class
// counters, a fixed-bucket miss-latency histogram, and a compact binary
// event trace with an exported decoder.
//
// The simulator keeps its closure-preselection fast path: when
// observation is off nothing here is called (see sim.Runner); when it is
// on, the lowered reference closures call Recorder.Read/Write once per
// memory reference. Coherence events that happen outside the reference
// stream (directory invalidations, timetag reset phases) arrive through
// the memsys.Probe interface, which Recorder implements.
package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/prog"
	"repro/internal/stats"
)

// Level selects how much instrumentation a run pays for.
type Level int

const (
	// LevelOff records nothing; the simulator uses its plain fast path.
	LevelOff Level = iota
	// LevelCounters accumulates attributed counters and the latency
	// histogram in memory (no I/O).
	LevelCounters
	// LevelTrace additionally streams every event to a binary trace.
	LevelTrace
)

func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelCounters:
		return "counters"
	case LevelTrace:
		return "trace"
	default:
		return "?"
	}
}

// ParseLevel parses "off", "counters", or "trace".
func ParseLevel(s string) (Level, error) {
	switch s {
	case "off", "":
		return LevelOff, nil
	case "counters":
		return LevelCounters, nil
	case "trace":
		return LevelTrace, nil
	default:
		return LevelOff, fmt.Errorf("unknown obs level %q (want off, counters, or trace)", s)
	}
}

// ArraySpan locates one program variable (array or scalar) in the flat
// address space; attribution maps an address to the covering span.
type ArraySpan struct {
	Name string `json:"name"`
	Base int64  `json:"base"`
	Size int64  `json:"size"`
}

// RefInfo describes one static source reference (indexed by the dense
// RefID the checker assigns and the lowered closures carry).
type RefInfo struct {
	Pos    string `json:"pos"`   // source "line:col"
	Proc   string `json:"proc"`  // procedure name
	Array  string `json:"array"` // referenced variable
	Mark   string `json:"mark"`  // compiler mark (regular / time-read / bypass / write)
	Window int    `json:"window,omitempty"`
	Write  bool   `json:"write,omitempty"`
}

// Meta is the run description embedded in every trace header so analysis
// tools are self-contained.
type Meta struct {
	Program   string      `json:"program,omitempty"`
	Scheme    string      `json:"scheme"`
	Procs     int         `json:"procs"`
	LineWords int         `json:"lineWords"`
	MemWords  int64       `json:"memWords"`
	Arrays    []ArraySpan `json:"arrays"`
	Refs      []RefInfo   `json:"refs"`
}

// LatencyBucketBounds are the inclusive upper bounds of the fixed
// miss-latency histogram buckets (cycles); the last bucket is unbounded.
var LatencyBucketBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

const numLatBuckets = 12 // len(LatencyBucketBounds) + 1 overflow bucket

func latBucket(stall int64) int {
	for i, b := range LatencyBucketBounds {
		if stall <= b {
			return i
		}
	}
	return len(LatencyBucketBounds)
}

type epochAcc struct {
	startCycle  int64
	reads       int64
	writes      int64
	readHits    int64
	writeHits   int64
	readMisses  stats.ClassCounts
	writeMisses stats.ClassCounts
	readStall   int64
	resets      int64
	resetWords  int64
	invals      int64
}

type procAcc struct {
	reads      int64
	writes     int64
	readHits   int64
	writeHits  int64
	readMisses stats.ClassCounts
	readStall  int64
}

type arrayAcc struct {
	reads       int64
	writes      int64
	readMisses  stats.ClassCounts
	writeMisses stats.ClassCounts
}

type refAcc struct {
	count  int64
	misses stats.ClassCounts
}

// agg is the attribution accumulator shared by the live Recorder and the
// offline trace Replay.
type agg struct {
	meta    Meta
	spans   []span // the non-empty spans of meta.Arrays, by base
	epochs  []epochAcc
	cur     *epochAcc
	procs   []procAcc
	arrays  []arrayAcc
	refs    []refAcc
	latHist [numLatBuckets]int64
}

// span is one non-empty entry of Meta.Arrays, with its index there.
type span struct {
	base, size int64
	array      int32
}

// newAgg builds the accumulator for meta. Attribution searches the
// array spans by base, so they may come in any order, but two that
// overlap are an error: no word can belong to two variables.
func newAgg(meta Meta) (*agg, error) {
	a := &agg{
		meta:   meta,
		procs:  make([]procAcc, meta.Procs),
		arrays: make([]arrayAcc, len(meta.Arrays)),
		refs:   make([]refAcc, len(meta.Refs)),
		epochs: make([]epochAcc, 1), // epoch 0: references before the first barrier
	}
	a.cur = &a.epochs[0]
	for i, sp := range meta.Arrays {
		if sp.Size > 0 {
			a.spans = append(a.spans, span{sp.Base, sp.Size, int32(i)})
		}
	}
	sort.Slice(a.spans, func(i, j int) bool { return a.spans[i].base < a.spans[j].base })
	for i := 1; i < len(a.spans); i++ {
		if prev, sp := a.spans[i-1], a.spans[i]; sp.base-prev.base < prev.size {
			return nil, fmt.Errorf("obs: array %q [%d, +%d) overlaps array %q [%d, +%d)",
				meta.Arrays[sp.array].Name, sp.base, sp.size, meta.Arrays[prev.array].Name, prev.base, prev.size)
		}
	}
	return a, nil
}

// arrayAt returns the index into meta.Arrays of the span holding addr,
// or -1 for padding and for addresses outside the data segment.
func (a *agg) arrayAt(addr int64) int32 {
	if addr < 0 || addr >= a.meta.MemWords {
		return -1
	}
	lo, hi := 0, len(a.spans) // the answer is the last span with base <= addr
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a.spans[m].base <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo > 0 {
		if sp := &a.spans[lo-1]; addr-sp.base < sp.size {
			return sp.array
		}
	}
	return -1
}

func (a *agg) epochStart(epoch, cycle int64) {
	for int64(len(a.epochs)) <= epoch {
		a.epochs = append(a.epochs, epochAcc{startCycle: cycle})
	}
	a.cur = &a.epochs[epoch]
	a.cur.startCycle = cycle
}

// read accumulates one read reference; class < 0 means hit. Stall is
// attributed only to misses, so the per-epoch/per-proc stall columns
// decompose stats.MissLatencySum exactly (hits can still carry latency
// on some schemes — timetag checks, L1→L2 fills — but that is busy
// time, not miss stall).
func (a *agg) read(proc int, addr int64, ref int32, class int8, stall int64) {
	e := a.cur
	e.reads++
	if proc >= 0 && proc < len(a.procs) {
		p := &a.procs[proc]
		p.reads++
		if class < 0 {
			p.readHits++
		} else {
			p.readMisses[class]++
			p.readStall += stall
		}
	}
	if class < 0 {
		e.readHits++
		return
	}
	e.readMisses[class]++
	e.readStall += stall
	a.latHist[latBucket(stall)]++
	if ai := a.arrayAt(addr); ai >= 0 {
		a.arrays[ai].readMisses[class]++
	}
	if ref >= 0 && int(ref) < len(a.refs) {
		a.refs[ref].misses[class]++
	}
}

// write accumulates one write reference; class < 0 means hit.
func (a *agg) write(proc int, addr int64, ref int32, class int8) {
	e := a.cur
	e.writes++
	if proc >= 0 && proc < len(a.procs) {
		p := &a.procs[proc]
		p.writes++
		if class < 0 {
			p.writeHits++
		}
	}
	ai := a.arrayAt(addr)
	if ai >= 0 {
		a.arrays[ai].writes++
	}
	if class < 0 {
		e.writeHits++
		return
	}
	e.writeMisses[class]++
	if ai >= 0 {
		a.arrays[ai].writeMisses[class]++
	}
	if ref >= 0 && int(ref) < len(a.refs) {
		a.refs[ref].misses[class]++
	}
}

func (a *agg) refCount(ref int32) {
	if ref >= 0 && int(ref) < len(a.refs) {
		a.refs[ref].count++
	}
}

func (a *agg) arrayRead(addr int64) {
	if ai := a.arrayAt(addr); ai >= 0 {
		a.arrays[ai].reads++
	}
}

func (a *agg) inval() { a.cur.invals++ }

func (a *agg) reset(epoch, words int64) {
	// Reset phases run at the barrier entering `epoch`; attribute there.
	a.epochStart(epoch, a.cur.startCycle)
	a.cur.resets++
	a.cur.resetWords += words
}

// EpochRow is one epoch's attributed counters.
type EpochRow struct {
	Epoch       int64             `json:"epoch"`
	StartCycle  int64             `json:"startCycle"`
	Reads       int64             `json:"reads"`
	Writes      int64             `json:"writes"`
	ReadHits    int64             `json:"readHits"`
	WriteHits   int64             `json:"writeHits"`
	ReadMisses  stats.ClassCounts `json:"readMisses"`
	WriteMisses stats.ClassCounts `json:"writeMisses"`
	// ReadStallCycles is the miss-attributed read stall; summed over
	// epochs it equals stats.MissLatencySum.
	ReadStallCycles    int64 `json:"readStallCycles"`
	TimetagResets      int64 `json:"timetagResets,omitempty"`
	ResetInvalidations int64 `json:"resetInvalidations,omitempty"`
	Invalidations      int64 `json:"invalidations,omitempty"`
}

// ProcRow is one processor's attributed counters.
type ProcRow struct {
	Proc            int               `json:"proc"`
	Reads           int64             `json:"reads"`
	Writes          int64             `json:"writes"`
	ReadHits        int64             `json:"readHits"`
	WriteHits       int64             `json:"writeHits"`
	ReadMisses      stats.ClassCounts `json:"readMisses"`
	ReadStallCycles int64             `json:"readStallCycles"`
}

// ArrayRow attributes misses to one program variable.
type ArrayRow struct {
	Name        string            `json:"name"`
	Reads       int64             `json:"reads"`
	Writes      int64             `json:"writes"`
	ReadMisses  stats.ClassCounts `json:"readMisses"`
	WriteMisses stats.ClassCounts `json:"writeMisses"`
}

// RefRow attributes misses to one static source reference.
type RefRow struct {
	ID     int               `json:"id"`
	Pos    string            `json:"pos"`
	Proc   string            `json:"proc"`
	Array  string            `json:"array"`
	Mark   string            `json:"mark"`
	Window int               `json:"window,omitempty"`
	Write  bool              `json:"write,omitempty"`
	Count  int64             `json:"count"`
	Misses stats.ClassCounts `json:"misses"`
}

// LatencyBucket is one histogram bucket; Hi < 0 means unbounded.
type LatencyBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Report is the full attributed result of an observed run (or a trace
// replay). It marshals directly to the JSON consumed by tooling.
type Report struct {
	Meta        Meta            `json:"meta"`
	TotalCycles int64           `json:"totalCycles"`
	Epochs      []EpochRow      `json:"epochs"`
	Procs       []ProcRow       `json:"procs"`
	Arrays      []ArrayRow      `json:"arrays"`
	Refs        []RefRow        `json:"refs"`
	Latency     []LatencyBucket `json:"latencyHistogram"`
}

func (a *agg) report() *Report {
	rep := &Report{Meta: a.meta}
	for i := range a.epochs {
		e := &a.epochs[i]
		if i > 0 && e.reads == 0 && e.writes == 0 && e.resets == 0 && e.invals == 0 {
			continue
		}
		rep.Epochs = append(rep.Epochs, EpochRow{
			Epoch:              int64(i),
			StartCycle:         e.startCycle,
			Reads:              e.reads,
			Writes:             e.writes,
			ReadHits:           e.readHits,
			WriteHits:          e.writeHits,
			ReadMisses:         e.readMisses,
			WriteMisses:        e.writeMisses,
			ReadStallCycles:    e.readStall,
			TimetagResets:      e.resets,
			ResetInvalidations: e.resetWords,
			Invalidations:      e.invals,
		})
	}
	for p := range a.procs {
		pa := &a.procs[p]
		rep.Procs = append(rep.Procs, ProcRow{
			Proc:            p,
			Reads:           pa.reads,
			Writes:          pa.writes,
			ReadHits:        pa.readHits,
			WriteHits:       pa.writeHits,
			ReadMisses:      pa.readMisses,
			ReadStallCycles: pa.readStall,
		})
	}
	for i := range a.arrays {
		aa := &a.arrays[i]
		var z stats.ClassCounts
		if aa.reads == 0 && aa.writes == 0 && aa.readMisses == z && aa.writeMisses == z {
			continue
		}
		rep.Arrays = append(rep.Arrays, ArrayRow{
			Name:        a.meta.Arrays[i].Name,
			Reads:       aa.reads,
			Writes:      aa.writes,
			ReadMisses:  aa.readMisses,
			WriteMisses: aa.writeMisses,
		})
	}
	for id := range a.refs {
		ra := &a.refs[id]
		var z stats.ClassCounts
		if ra.count == 0 && ra.misses == z {
			continue
		}
		info := RefInfo{}
		if id < len(a.meta.Refs) {
			info = a.meta.Refs[id]
		}
		rep.Refs = append(rep.Refs, RefRow{
			ID:     id,
			Pos:    info.Pos,
			Proc:   info.Proc,
			Array:  info.Array,
			Mark:   info.Mark,
			Window: info.Window,
			Write:  info.Write,
			Count:  ra.count,
			Misses: ra.misses,
		})
	}
	lo := int64(0)
	for i := 0; i < numLatBuckets; i++ {
		hi := int64(-1)
		if i < len(LatencyBucketBounds) {
			hi = LatencyBucketBounds[i]
		}
		rep.Latency = append(rep.Latency, LatencyBucket{Lo: lo, Hi: hi, Count: a.latHist[i]})
		lo = hi + 1
	}
	return rep
}

// ReadMissTotals sums the per-epoch read-miss decomposition; by
// construction it must equal the run's stats.Stats.ReadMisses.
func (r *Report) ReadMissTotals() stats.ClassCounts {
	var t stats.ClassCounts
	for _, e := range r.Epochs {
		t.Add(e.ReadMisses)
	}
	return t
}

// WriteMissTotals sums the per-epoch write-miss decomposition.
func (r *Report) WriteMissTotals() stats.ClassCounts {
	var t stats.ClassCounts
	for _, e := range r.Epochs {
		t.Add(e.WriteMisses)
	}
	return t
}

// TopConservative returns up to k source references ordered by
// conservative-miss count (descending), the drill-down that diagnoses
// compiler-marking quality.
func (r *Report) TopConservative(k int) []RefRow {
	const consv = stats.MissConservative
	rows := make([]RefRow, 0, len(r.Refs))
	for _, rr := range r.Refs {
		if rr.Misses[consv] > 0 {
			rows = append(rows, rr)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Misses[consv] != rows[j].Misses[consv] {
			return rows[i].Misses[consv] > rows[j].Misses[consv]
		}
		return rows[i].ID < rows[j].ID
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// Recorder is the live instrumentation sink the simulator drives. It is
// not safe for concurrent use; the simulator is single-threaded.
type Recorder struct {
	level Level
	a     *agg
	tw    *TraceWriter
}

// NewRecorder builds a recorder at the given level. traceW, when non-nil,
// receives the binary event trace (implying at least LevelTrace). Array
// spans may come in any order; overlapping ones are an error.
func NewRecorder(level Level, meta Meta, traceW io.Writer) (*Recorder, error) {
	if traceW != nil {
		level = LevelTrace
	}
	if level == LevelOff {
		return nil, fmt.Errorf("obs: recorder needs a level above %s", LevelOff)
	}
	if level == LevelTrace && traceW == nil {
		return nil, fmt.Errorf("obs: %s needs a trace writer", LevelTrace)
	}
	a, err := newAgg(meta)
	if err != nil {
		return nil, err
	}
	r := &Recorder{level: level, a: a}
	if traceW != nil {
		tw, err := NewTraceWriter(traceW, &meta)
		if err != nil {
			return nil, err
		}
		r.tw = tw
	}
	return r, nil
}

// Level reports the active instrumentation level.
func (r *Recorder) Level() Level { return r.level }

// EpochStart notes the barrier that begins an epoch and the cumulative
// cycle count at that point.
func (r *Recorder) EpochStart(epoch, cycle int64) {
	r.a.epochStart(epoch, cycle)
	if r.tw != nil {
		r.tw.epoch(epoch, cycle)
	}
}

// Read records one read reference; class < 0 means cache hit.
func (r *Recorder) Read(proc int, addr prog.Word, ref int32, kind uint8, class int8, stall int64) {
	r.a.read(proc, int64(addr), ref, class, stall)
	r.a.refCount(ref)
	r.a.arrayRead(int64(addr))
	if r.tw != nil {
		r.tw.read(proc, int64(addr), ref, kind, class, stall)
	}
}

// Write records one write reference; class < 0 means cache hit.
func (r *Recorder) Write(proc int, addr prog.Word, ref int32, crit bool, class int8, stall int64) {
	r.a.write(proc, int64(addr), ref, class)
	r.a.refCount(ref)
	if r.tw != nil {
		r.tw.write(proc, int64(addr), ref, crit, class, stall)
	}
}

// Invalidation implements memsys.Probe.
func (r *Recorder) Invalidation(writer, victim int, addr prog.Word, class stats.MissClass) {
	r.a.inval()
	if r.tw != nil {
		r.tw.inval(writer, victim, int64(addr), uint8(class))
	}
}

// TimetagReset implements memsys.Probe.
func (r *Recorder) TimetagReset(epoch int64, words int64) {
	r.a.reset(epoch, words)
	if r.tw != nil {
		r.tw.reset(epoch, words)
	}
}

// Finish closes the trace (if any) and builds the attributed report. st,
// when non-nil, supplies run totals for the trace trailer and the report.
func (r *Recorder) Finish(st *stats.Stats) (*Report, error) {
	rep := r.a.report()
	if st != nil {
		rep.TotalCycles = st.Cycles
	}
	if r.tw != nil {
		var reads, writes int64
		if st != nil {
			reads, writes = st.Reads, st.Writes
		}
		r.tw.end(reads, writes, rep.TotalCycles)
		if err := r.tw.Flush(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
