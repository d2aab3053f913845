// Package sim is the execution-driven simulator: it executes a
// compiled PFL program by walking each procedure's epoch flow graph,
// scheduling DOALL iterations across the simulated processors, and
// driving every memory reference through a coherence scheme's memory
// system — so data values actually flow through the simulated caches and
// any coherence failure corrupts the results visibly.
//
// Procedure bodies are first lowered (see lower.go) to a slot-addressed
// closure IR, so the hot loop executes pre-bound closures over a flat
// []int64 frame instead of re-walking the AST with map-keyed
// environments. Lowering never changes the observable memory-reference
// order or the cycle charges.
//
// Timing model (the paper's): single-issue processors, weak consistency
// (reads stall on misses, writes retire through an infinite write
// buffer), a global barrier at every epoch boundary, and per-epoch
// execution time equal to the slowest processor in that epoch.
// Tasks of an epoch are simulated one at a time in ascending iteration
// order; DOALL independence makes the result order-insensitive, and
// critical sections execute in the same order as a sequential run, so
// results are bit-for-bit comparable with the sequential oracle.
package sim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/epochg"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/pfl"
	"repro/internal/prog"
	"repro/internal/stats"
)

// readFunc performs one read reference; selected once per run so the
// instrumentation test is not paid per reference. ref is
// the static source-reference ID bound into the lowered closure (-1 for
// references without one).
type readFunc func(t *task, addr prog.Word, kind memsys.ReadKind, window int, ref int32) float64

// writeFunc performs one write reference.
type writeFunc func(t *task, addr prog.Word, v float64, ref int32)

// Runner executes one lowered program on one memory system.
type Runner struct {
	lp  *Program
	sys memsys.System
	cfg machine.Config
	ctx context.Context
	rec *obs.Recorder
	st  *stats.Stats // sys.Stats(), cached at Run start for the observed path

	read  readFunc
	write writeFunc

	// buffered is set when the scheme runs every epoch on buffered lanes
	// (EpochBuffered): endEpoch then flushes lanes — and any deferred
	// protocol replay — at the barrier, and because sequential reference
	// counters land in the per-processor lanes, the classified read/write
	// paths diff the processor's lane sink instead of the run totals.
	buffered bool

	// Fast-path fallback tracking for -require-fastpath (fpTrack off =
	// zero overhead). Misses dedup on (site, reason); the mutex is only
	// taken on an actual fallback, which host-parallel workers may hit
	// concurrently.
	fpTrack  bool
	fpMu     sync.Mutex
	fpSeen   map[fpKey]struct{}
	fpMisses []FastPathMiss

	epoch      int64
	cycles     int64
	serialNext int // rotation state for MigrateSerial
	maxEpochs  int64

	// Progress sampling (see progress.go). The stream tallies are
	// atomic because streamed loops execute inside host-parallel
	// workers; the doall tallies only move on the scheduling goroutine.
	progress        ProgressFunc
	progressEvery   int64
	progressLast    int64
	streamLoops     atomicI64
	streamFallbacks atomicI64
	hostparEpochs   int64
	seqDoallEpochs  int64

	// hostpar, when non-nil, executes eligible DOALL epochs across host
	// goroutines (see hostpar.go); it points at the storage's hp. Set up
	// once per Run; hostparOff names the run-wide reason when it stays
	// nil.
	hostpar    *hostPar
	hostparOff string

	runStorage
}

// runStorage is the working storage of a run's walk: call frames,
// per-processor cycle counters, scheduling and epoch buffers, and the
// host-parallel workers. Run takes it from storages at entry and scrubs
// and returns it on every exit, the fault path included, so a warm run
// allocates none of it. Everything in it is reset where it is used.
type runStorage struct {
	frames   []*frame // indexed by call depth
	procWork []int64  // cycles consumed by each processor in the current epoch
	procBusy []int64  // lifetime busy cycles per processor
	dynHeap  []int32  // the DynamicSched least-loaded heap (see runDoallDynamic)
	mods     []int    // the finishing epoch's may-written variables (see noteEpochMods)
	hp       hostPar
}

// storages keeps released run storage for the next Run, under the free
// lists' shared budget.
var storages cache.FreeList[runStorage]

// takeStorage gives the runner pooled storage sized for its machine.
func (r *Runner) takeStorage() {
	r.runStorage, _ = storages.Get()
	r.procWork = zeroed(r.procWork, r.cfg.Procs)
	r.procBusy = zeroed(r.procBusy, r.cfg.Procs)
}

// releaseStorage stops the host-parallel workers, drops every reference
// the storage holds into this run (system, recorder, program), and
// returns it for reuse.
func (r *Runner) releaseStorage() {
	r.hp.stop()
	s := &r.runStorage
	size := int64(unsafe.Sizeof(*s)) + int64(cap(s.frames))*ptrSize +
		int64(cap(s.procWork)+cap(s.procBusy)+cap(s.mods))*8 + int64(cap(s.dynHeap))*4
	for _, f := range s.frames {
		size += f.scrub()
	}
	size += s.hp.scrub()
	storages.Put(*s, size)
	*s = runStorage{}
}

// frame returns the frame at call depth d, adding it on first use.
func (r *Runner) frame(d int) *frame {
	if d == len(r.frames) {
		r.frames = append(r.frames, &frame{})
	}
	return r.frames[d]
}

// frame is the state of one procedure invocation, kept per call depth
// and reused by every invocation at that depth.
type frame struct {
	t      task
	loops  []loopState // per EFG node: header iteration state
	arrays []int       // the invocation's formal-array bindings: positions in Vars
}

// scrub drops the frame's references into the finished run and reports
// the bytes it keeps.
func (f *frame) scrub() int64 {
	f.arrays = f.arrays[:0]
	return int64(unsafe.Sizeof(*f)) + int64(cap(f.loops))*int64(unsafe.Sizeof(loopState{})) +
		int64(cap(f.arrays))*8 + f.t.scrub()
}

const ptrSize = int64(unsafe.Sizeof(uintptr(0)))

// zeroed returns s resized to n zero elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// NewLowered builds a runner over an already-lowered program, so the
// lowering cost is paid once per program rather than per run.
func NewLowered(lp *Program, sys memsys.System, cfg machine.Config) *Runner {
	maxE := cfg.MaxEpochs
	if maxE == 0 {
		maxE = machine.DefaultMaxEpochs
	}
	return &Runner{lp: lp, sys: sys, cfg: cfg, maxEpochs: maxE}
}

// Run initializes memory from declarations, executes proc main, and
// returns the accumulated statistics.
func (r *Runner) Run() (st *stats.Stats, err error) {
	r.takeStorage()
	defer func() {
		p := recover()
		re, fault := p.(runError)
		if fault {
			st, err = nil, re.err
			if r.progress != nil {
				// Final snapshot for an aborted run: the unwind happens
				// between references on this goroutine, and counters are
				// readable (possibly mid-epoch for non-barrier faults).
				r.emitProgress(true, true)
			}
		}
		r.releaseStorage()
		if p != nil && !fault {
			panic(p)
		}
	}()
	r.st = r.sys.Stats()
	if r.rec != nil {
		r.read, r.write = readObs, writeObs
	} else {
		r.read, r.write = readFast, writeFast
	}
	r.buffered = r.sys.EpochBuffered()
	r.setupHostParallel()
	for _, in := range r.lp.ir.inits {
		r.sys.Mem().InitWord(r.lp.bases[in.v], in.init)
	}
	r.runProc(r.lp.ir.procs["main"], 0)
	r.endEpoch() // flush trailing structural-node work into the total
	st = r.sys.Stats()
	st.Cycles = r.cycles
	st.Epochs = r.epoch
	st.ProcBusy = append([]int64(nil), r.procBusy...)
	if r.progress != nil {
		r.emitProgress(true, false)
	}
	return st, nil
}

// task is the execution context of one running task: the frame of loop
// variable slots plus the formal-array bindings of the enclosing
// procedure invocation, and the bound layout's global base addresses. A
// frame's task serves every task of a procedure walk; only proc (and
// transiently inCrit) change.
type task struct {
	r      *Runner
	proc   int
	inCrit bool
	slots  []int64
	arrays []int       // formal-array bindings: positions in Vars
	bases  []prog.Word // the run's Program.bases

	// Per-task event sinks. Sequential execution points them at the
	// runner's own stats/recorder; inside a host-parallel epoch each
	// worker task points at its current processor's shard, so the lowered
	// closures never touch shared state from a goroutine.
	st  *stats.Stats
	rec obs.Sink

	// ss is the task's stream-execution scratch (cursors, address
	// walkers, value stack); see stream.go.
	ss streamScratch
}

// enter readies a frame's task for a walk of a procedure with numSlots
// loop-variable slots over the given formal-array bindings.
func (t *task) enter(r *Runner, numSlots int, arrays []int) {
	t.r, t.proc, t.inCrit = r, 0, false
	t.slots = zeroed(t.slots, numSlots)
	t.arrays, t.bases = arrays, r.lp.bases
	t.st, t.rec = r.st, nil
	if r.rec != nil {
		t.rec = r.rec
	}
}

// scrub drops the task's references into the finished run and reports
// the bytes it keeps.
func (t *task) scrub() int64 {
	t.r, t.arrays, t.bases, t.st, t.rec = nil, nil, nil, nil, nil
	return int64(unsafe.Sizeof(*t)) + int64(cap(t.slots))*8 + t.ss.scrub()
}

// charge adds processor cycles to the task's processor.
func (t *task) charge(c int64) { t.r.procWork[t.proc] += c }

// loopState is one header node's live iteration state.
type loopState struct {
	active      bool
	v, hi, step int64
}

// runProc walks a procedure's epoch flow graph over its lowered nodes,
// in the frame at call depth depth (whose arrays the caller has bound).
func (r *Runner) runProc(lp *loweredProc, depth int) {
	f := r.frame(depth)
	f.loops = zeroed(f.loops, len(lp.nodes))
	loops, arrays, t := f.loops, f.arrays, &f.t
	t.enter(r, lp.numSlots, arrays)

	n := lp.graph.Entry
	for n != nil {
		// Only real epochs (see epochg.Node.Counts) advance the counter
		// and pay the barrier; structural nodes execute inside the
		// surrounding epoch, exactly as the static distances assume.
		counts := n.Counts()
		if counts {
			r.enterEpoch()
		}
		ln := &lp.nodes[n.ID]
		switch n.Kind {
		case epochg.KindEntry:
			n = onlySucc(n)

		case epochg.KindExit:
			return // exit nodes have no references

		case epochg.KindSerial:
			t.proc = r.serialProc()
			for _, s := range ln.serial {
				s(t)
			}
			if counts {
				r.noteEpochMods(ln, arrays)
				r.endEpoch()
			}
			n = onlySucc(n)

		case epochg.KindHeader:
			t.proc = r.serialProc()
			ls := &loops[n.ID]
			if !ls.active {
				lo := int64(ln.lo(t))
				hi := int64(ln.hi(t))
				step := int64(1)
				if ln.step != nil {
					step = int64(ln.step(t))
					if step == 0 {
						fail("sim: %s: loop step is zero", ln.stepPos)
					}
				}
				*ls = loopState{active: true, v: lo, hi: hi, step: step}
			} else {
				ls.v += ls.step
			}
			t.charge(2) // loop bookkeeping
			t.slots[ln.loopVarSlot] = ls.v
			if (ls.step > 0 && ls.v <= ls.hi) || (ls.step < 0 && ls.v >= ls.hi) {
				n = n.Loop.Body
			} else {
				ls.active = false
				n = loopExit(n)
			}

		case epochg.KindBranch:
			t.proc = r.serialProc()
			if ln.cond(t) != 0 {
				n = n.Branch.Then
			} else {
				n = n.Branch.Else
			}

		case epochg.KindDoall:
			r.runDoall(ln.doall, t)
			r.noteEpochMods(ln, arrays)
			r.endEpoch()
			n = onlySucc(n)

		case epochg.KindCall:
			// The call node's own epoch is the call prologue; the callee's
			// epochs follow inside it.
			r.endEpoch()
			callee := r.frame(depth + 1)
			callee.arrays = callee.arrays[:0]
			for _, src := range ln.callArgs {
				callee.arrays = append(callee.arrays, src.resolve(arrays))
			}
			r.runProc(ln.callee, depth+1)
			n = onlySucc(n)

		default:
			fail("sim: unknown node kind %v", n.Kind)
		}
	}
}

// onlySucc returns a node's unique non-structural successor.
func onlySucc(n *epochg.Node) *epochg.Node {
	if len(n.Succs) == 0 {
		return nil
	}
	return n.Succs[len(n.Succs)-1]
}

// loopExit finds the header's successor outside the loop body.
func loopExit(h *epochg.Node) *epochg.Node {
	for _, s := range h.Succs {
		if s != h.Loop.Body {
			return s
		}
	}
	return nil
}

// SetContext attaches a cancellation context: the runner checks it at
// every epoch barrier (the natural stopping point — no task is mid-
// flight, so the memory system is consistent and releasable) and aborts
// the run with an error wrapping ctx.Err(). Pass nil to disable. The
// check is one atomic load per epoch, unmeasurable against the barrier's
// own work.
func (r *Runner) SetContext(ctx context.Context) {
	if ctx == context.Background() || ctx == context.TODO() {
		ctx = nil
	}
	r.ctx = ctx
}

// SetObserver attaches an instrumentation recorder (see package obs):
// every memory reference is classified and attributed, and epoch
// boundaries are announced with the cumulative cycle count. A recorder
// with a trace writer streams every event to the binary trace (render
// it as text with `tpitrace -text`). Pass nil to disable; when disabled
// nothing is paid.
func (r *Runner) SetObserver(rec *obs.Recorder) { r.rec = rec }

// enterEpoch advances the global epoch counter and applies boundary costs.
func (r *Runner) enterEpoch() {
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			panic(runError{fmt.Errorf("sim: run aborted at epoch %d barrier: %w", r.epoch, err)})
		}
	}
	r.epoch++
	if r.epoch > r.maxEpochs {
		fail("sim: epoch limit exceeded (%d): runaway loop?", r.maxEpochs)
	}
	if r.rec != nil {
		// Announce before the boundary work so reset-phase events land in
		// the epoch the barrier opens.
		r.rec.EpochStart(r.epoch, r.cycles)
	}
	stall := r.sys.EpochBoundary(r.epoch)
	if stall > 0 {
		r.cycles += stall
	}
}

// noteEpochMods reports the finishing epoch's may-written variables to a
// version-tracking scheme (VC), resolving formal bindings to the bound
// actuals.
func (r *Runner) noteEpochMods(ln *loweredNode, arrays []int) {
	if len(ln.mods) == 0 {
		return
	}
	vs, ok := r.sys.(memsys.Versioned)
	if !ok {
		return
	}
	r.mods = r.mods[:0]
	for _, m := range ln.mods {
		r.mods = append(r.mods, m.resolve(arrays))
	}
	vs.EpochMods(r.mods)
}

// endEpoch closes the current epoch: global time advances by the slowest
// processor plus the barrier cost. Always-buffered schemes merge their
// per-processor lanes (and replay deferred coherence actions) here, at
// the barrier, before time advances.
func (r *Runner) endEpoch() {
	if r.buffered {
		r.sys.FlushEpoch()
	}
	var maxWork int64
	for p := range r.procWork {
		if r.procWork[p] > maxWork {
			maxWork = r.procWork[p]
		}
		r.procBusy[p] += r.procWork[p]
		r.procWork[p] = 0
	}
	r.cycles += maxWork + r.cfg.BarrierCycles
	r.sys.Stats().BarrierCycles += r.cfg.BarrierCycles
	r.sys.Net().AdvanceTo(r.cycles)
	r.maybeEmitProgress()
}

// serialProc picks the processor for serial work, honoring the
// serial-task placement policy (one rotation per serial task, exactly
// as the interpreter rotated).
func (r *Runner) serialProc() int {
	if !r.cfg.MigrateSerial {
		return 0
	}
	p := r.serialNext
	r.serialNext = (r.serialNext + 1) % r.cfg.Procs
	return p
}

// runDoall schedules and executes a parallel loop.
func (r *Runner) runDoall(ld *loweredDoall, t *task) {
	// Bounds are evaluated once by the scheduling (serial) task.
	t.proc = r.serialProc()
	lo := int64(ld.lo(t))
	hi := int64(ld.hi(t))
	t.charge(4) // dispatch overhead
	if hi < lo {
		return
	}
	if r.cfg.DynamicSched {
		r.seqDoallEpochs++
		r.noteDoallFallback(ld, r.hostparOff)
		r.runDoallDynamic(ld, t, lo, hi)
		return
	}
	if r.hostpar != nil && !ld.seqOnly {
		r.hostparEpochs++
		r.hostpar.run(ld, t, lo, hi)
		return
	}
	// seqOnly doalls (body reaches a critical/ordered section) are
	// structural non-candidates for sharding — same-epoch communication
	// is the point — so they are not recorded as fast-path misses.
	r.seqDoallEpochs++
	if !ld.seqOnly {
		r.noteDoallFallback(ld, r.hostparOff)
	}
	n := hi - lo + 1
	procs := int64(r.cfg.Procs)
	chunk := (n + procs - 1) / procs

	for it := lo; it <= hi; it++ {
		var p int64
		if r.cfg.CyclicSched {
			p = (it - lo) % procs
		} else {
			p = (it - lo) / chunk
		}
		t.proc = int(p)
		t.slots[ld.varSlot] = it
		t.charge(2) // per-task scheduling overhead
		for _, s := range ld.body {
			s(t)
		}
	}
}

// runDoallDynamic self-schedules iterations onto the least-loaded
// processor. The argmin lives in a binary min-heap over (procWork, proc)
// — lexicographic, so ties break to the lowest processor index, exactly
// like the linear scan it replaces. Only the processor that just ran an
// iteration gains work between selections, so one sift-down of the root
// per iteration maintains the heap: O(log P) instead of O(P).
func (r *Runner) runDoallDynamic(ld *loweredDoall, t *task, lo, hi int64) {
	h := r.dynHeap[:0]
	for p := 0; p < r.cfg.Procs; p++ {
		h = append(h, int32(p))
	}
	r.dynHeap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		r.dynSiftDown(i)
	}
	for it := lo; it <= hi; it++ {
		t.proc = int(h[0])
		t.slots[ld.varSlot] = it
		t.charge(2) // per-task scheduling overhead
		for _, s := range ld.body {
			s(t)
		}
		r.dynSiftDown(0) // only the root's load grew
	}
}

// dynLess orders heap entries by (current epoch work, processor index).
func (r *Runner) dynLess(a, b int32) bool {
	wa, wb := r.procWork[a], r.procWork[b]
	return wa < wb || (wa == wb && a < b)
}

// dynSiftDown restores the heap property below index i.
func (r *Runner) dynSiftDown(i int) {
	h := r.dynHeap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if rc := l + 1; rc < n && r.dynLess(h[rc], h[l]) {
			m = rc
		}
		if !r.dynLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// readFast performs a read reference through the memory system.
func readFast(t *task, addr prog.Word, kind memsys.ReadKind, window int, ref int32) float64 {
	v, stall := t.r.sys.Read(t.proc, addr, kind, window)
	t.charge(stall)
	return v
}

// readClassified performs the read and recovers its hit/miss class
// (memsys.ReadClassified, -1 for a hit). The diff base is the
// processor's lane shard for always-buffered schemes (their counters
// land there even sequentially), otherwise the task's counter sink (the
// processor's stats shard in a host-parallel epoch).
func readClassified(t *task, addr prog.Word, kind memsys.ReadKind, window int) (v float64, stall int64, class int8) {
	v, stall, class = memsys.ReadClassified(t.r.sys, t.classSink(), t.proc, addr, kind, window)
	t.charge(stall)
	return v, stall, class
}

// classSink is the counter sink a reference by t's processor lands in.
func (t *task) classSink() *stats.Stats {
	if t.r.buffered {
		return t.r.sys.LaneStats(t.proc)
	}
	return t.st
}

// readObs is readFast plus attributed-counter recording.
func readObs(t *task, addr prog.Word, kind memsys.ReadKind, window int, ref int32) float64 {
	v, stall, class := readClassified(t, addr, kind, window)
	t.rec.Read(t.proc, addr, ref, uint8(kind), class, stall)
	return v
}

// writeFast performs a write reference through the memory system.
func writeFast(t *task, addr prog.Word, v float64, ref int32) {
	stall := t.r.sys.Write(t.proc, addr, v, t.inCrit)
	t.charge(1 + stall)
}

// writeClassified mirrors readClassified for a write.
func writeClassified(t *task, addr prog.Word, v float64) (stall int64, class int8) {
	stall, class = memsys.WriteClassified(t.r.sys, t.classSink(), t.proc, addr, v, t.inCrit)
	t.charge(1 + stall)
	return stall, class
}

// writeObs is writeFast plus attributed-counter recording.
func writeObs(t *task, addr prog.Word, v float64, ref int32) {
	stall, class := writeClassified(t, addr, v)
	t.rec.Write(t.proc, addr, ref, t.inCrit, class, stall)
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func absI64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// evalIntrinsic applies a builtin pure function (shared by the lowerer's
// constant folding; the lowered closures inline the same operations).
func evalIntrinsic(ex *pfl.CallExpr, args []float64) (float64, error) {
	switch ex.Name {
	case "abs":
		return math.Abs(args[0]), nil
	case "sqrt":
		if args[0] < 0 {
			return 0, fmt.Errorf("sim: %s: sqrt of negative value %v", ex.Pos, args[0])
		}
		return math.Sqrt(args[0]), nil
	case "exp":
		return math.Exp(args[0]), nil
	case "log":
		if args[0] <= 0 {
			return 0, fmt.Errorf("sim: %s: log of non-positive value %v", ex.Pos, args[0])
		}
		return math.Log(args[0]), nil
	case "sin":
		return math.Sin(args[0]), nil
	case "cos":
		return math.Cos(args[0]), nil
	case "floor":
		return math.Floor(args[0]), nil
	case "min":
		return math.Min(args[0], args[1]), nil
	case "max":
		return math.Max(args[0], args[1]), nil
	default:
		return 0, fmt.Errorf("sim: %s: unknown intrinsic %q", ex.Pos, ex.Name)
	}
}
