package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/marking"
	"repro/internal/memsys"
	"repro/internal/pfl"
	"repro/internal/prog"
	"repro/internal/sections"
	"repro/internal/sim"
	"repro/internal/stats"
)

// span is one traced interval, recorded by the benchmark around a public
// call into a layer. Times are nanoseconds since the tracer started.
// Spans of one op share Op; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run writes them out. It is
// safe for concurrent use (the service workload's handlers record spans
// from both workers).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: -1})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	return time.Duration(end - t.spans[id].Start)
}

// add records an already-measured span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// selfTimes returns, per span name, the self time of every span with
// that name: its duration minus the part its children cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range t.spans {
		covered := coveredLen(s, children[s.ID])
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered))
	}
	return out
}

// coveredLen is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredLen(parent span, kids []span) int64 {
	var total, reach int64 = 0, parent.Start
	// Service spans are placed after the fact, so children are not
	// always recorded in start order.
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// write stores the spans as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// compileReps is how many times the traced run repeats the compile
// pipeline per source; each phase reports its median.
const compileReps = 20

// compilePhaseNames are the per-layer metrics of the compile front end
// and lowering, in pipeline order.
var compilePhaseNames = []string{"pfl.parse_us", "pfl.check_us", "prog.build_us", "sections.analyze_us", "marking.compute_us", "sim.lower_us"}

// traceCompile runs the compile pipeline phase by phase compileReps
// times on src (with core.Compile's analysis options and the given array
// alignment), recording a span per phase, and returns each phase's
// median in microseconds.
func (t *tracer) traceCompile(src string, align int64, op int) ([]float64, error) {
	samples := make([][]float64, len(compilePhaseNames))
	for rep := 0; rep < compileReps; rep++ {
		root := t.begin("compile", -1, op)
		phase := 0
		timed := func(f func() error) error {
			id := t.begin(compilePhaseNames[phase], root, op)
			err := f()
			samples[phase] = append(samples[phase], float64(t.end(id))/1e3)
			phase++
			return err
		}
		var (
			ast   *pfl.Program
			info  *pfl.Info
			p     *prog.Prog
			a     *sections.Analysis
			marks *marking.Result
			err   error
		)
		steps := []func() error{
			func() error { ast, err = pfl.Parse(src); return err },
			func() error { info, err = pfl.Check(ast); return err },
			func() error { p, err = prog.BuildPadded(info, align, false); return err },
			func() error { a = sections.Analyze(p, sections.Options{Interproc: true}); return nil },
			func() error { marks = marking.Compute(a, marking.Options{FirstReadReuse: true}); return nil },
			func() error { _, err = sim.Lower(p, marks); return err },
		}
		for _, step := range steps {
			if err := timed(step); err != nil {
				return nil, err
			}
		}
		t.end(root)
	}
	meds := make([]float64, len(samples))
	for i, s := range samples {
		meds[i] = median(s)
	}
	return meds, nil
}

// invariantChecked is the optional end-of-run check some schemes expose;
// core.Run calls it through the same assertion.
type invariantChecked interface {
	CheckInvariants() error
}

// opTrace is what one traced op measured beyond its spans.
type opTrace struct {
	newSystemAllocs float64
	epochUS         []float64
	final           sim.Progress
}

// tracedRun performs core.Run(c, cfg) through its public pieces, one
// span per layer call: Lowered, NewSystem, NewLowered+SetProgress+Run,
// CheckInvariants and ReleaseCaches, in core.Run's order. The progress
// callback stamps every epoch barrier.
func (t *tracer) tracedRun(c *core.Compiled, cfg machine.Config, op int) (*stats.Stats, opTrace, error) {
	var ot opTrace
	root := t.begin("op", -1, op)
	defer t.end(root)

	id := t.begin("core.lowered", root, op)
	lp, err := c.Lowered()
	t.end(id)
	if err != nil {
		return nil, ot, err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id = t.begin("core.new_system", root, op)
	sys, err := core.NewSystem(cfg, c.Prog)
	t.end(id)
	runtime.ReadMemStats(&m1)
	ot.newSystemAllocs = float64(m1.Mallocs - m0.Mallocs)
	if err != nil {
		return nil, ot, err
	}
	release := func() {
		if r, ok := sys.(memsys.Releaser); ok {
			r.ReleaseCaches()
		}
	}

	id = t.begin("sim.run", root, op)
	start := t.now()
	lastStamp, lastEpoch := start, int64(0)
	r := sim.NewLowered(lp, sys, cfg)
	r.SetProgress(func(p sim.Progress) {
		now := t.now()
		if p.Epoch > lastEpoch {
			ot.epochUS = append(ot.epochUS, float64(now-lastStamp)/1e3)
			lastStamp, lastEpoch = now, p.Epoch
		}
		if p.Done {
			ot.final = p
		}
	}, 1)
	st, err := r.Run()
	t.end(id)
	if err != nil {
		release()
		return nil, ot, err
	}

	id = t.begin("core.invariants", root, op)
	if ic, ok := sys.(invariantChecked); ok {
		err = ic.CheckInvariants()
	}
	t.end(id)

	id = t.begin("core.release", root, op)
	release()
	t.end(id)
	if err != nil {
		return nil, ot, err
	}
	return st, ot, nil
}

// layerAgg accumulates the traced ops' core, sim and memsys numbers.
type layerAgg struct {
	newSystemAllocs              []float64
	epochUS                      []float64
	ops                          int
	streamLoops, streamFallbacks int64
	hostparEpochs, epochs        int64
	reads, writes, readMisses    int64
	coherenceWords               int64
	compile                      [][]float64 // per phase, one median per source
}

func (a *layerAgg) addOp(st *stats.Stats, ot opTrace) {
	a.ops++
	a.newSystemAllocs = append(a.newSystemAllocs, ot.newSystemAllocs)
	a.epochUS = append(a.epochUS, ot.epochUS...)
	a.streamLoops += ot.final.StreamLoops
	a.streamFallbacks += ot.final.StreamFallbacks
	a.hostparEpochs += ot.final.HostParEpochs
	a.epochs += ot.final.Epoch
	a.reads += st.Reads
	a.writes += st.Writes
	for _, m := range st.ReadMisses {
		a.readMisses += m
	}
	a.coherenceWords += st.CoherenceTrafficWords
}

func (a *layerAgg) addCompile(meds []float64) {
	if a.compile == nil {
		a.compile = make([][]float64, len(meds))
	}
	for i, m := range meds {
		a.compile[i] = append(a.compile[i], m)
	}
}

// metrics derives the per-layer catalogue (except the go.* metrics,
// which come from the untraced phase) from the aggregate and the spans.
func (a *layerAgg) metrics(t *tracer, into map[string]float64) {
	for i, name := range compilePhaseNames {
		if i < len(a.compile) {
			into[name] = mean(a.compile[i])
		}
	}
	self := t.selfTimes()
	us := func(name string) float64 { return median(durations(self[name], time.Microsecond)) }
	into["core.new_system_us"] = us("core.new_system")
	into["core.new_system_allocs"] = median(a.newSystemAllocs)
	into["core.release_us"] = us("core.release")
	into["core.invariants_us"] = us("core.invariants")
	into["sim.run_self_ms"] = median(durations(self["sim.run"], time.Millisecond))
	ops := float64(a.ops)
	into["sim.stream_loops_per_run"] = ratio(float64(a.streamLoops), ops)
	into["sim.stream_fallbacks_per_run"] = ratio(float64(a.streamFallbacks), ops)
	into["sim.stream_loop_share"] = ratio(float64(a.streamLoops), float64(a.streamLoops+a.streamFallbacks))
	into["sim.epochs_per_run"] = ratio(float64(a.epochs), ops)
	into["sim.epoch_us_p50"] = median(a.epochUS)
	into["sim.epoch_us_p95"], _ = percentile(a.epochUS, 95)
	into["sim.hostpar_epoch_share"] = ratio(float64(a.hostparEpochs), float64(a.epochs))
	refs := float64(a.reads + a.writes)
	into["memsys.refs_per_run"] = ratio(refs, ops)
	into["memsys.read_miss_ratio"] = ratio(float64(a.readMisses), float64(a.reads))
	into["memsys.coherence_words_per_ref"] = ratio(float64(a.coherenceWords), refs)
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
