// Host-parallel DOALL execution: shard the simulated processors of one
// epoch across host goroutines, then re-serialize deterministically at
// the barrier.
//
// Why this is sound: a DOALL epoch has no cross-iteration dependences
// and every scheme's mid-epoch coherence decisions are processor-local
// (the memsys.System lane contract), so per-processor simulation state —
// cache, tracker, write buffer, and the per-processor Lane (stats shard,
// buffered write log, injection counter) plus the obs shards here — is
// touched by exactly one goroutine, and shared state (memory, network,
// epoch counter) is only read. The barrier merge fixes one serialization:
// everything folds in (processor, sequence) order, which under static
// block scheduling is exactly ascending-iteration order, i.e. the
// sequential runner's order. Counters are integer sums (order-free), so
// stats and obs reports are bit-identical to sequential execution under
// BOTH schedulings; the binary trace's event stream is identical under
// static scheduling and deterministically processor-major under cyclic.
// Every system shards (HW, VC, and Tardis via always-buffered lanes with
// barrier-deferred coherence replay).
//
// The workers are goroutines started on a run's first sharded epoch and
// parked between epochs on their wake channels; Run stops them on every
// exit, so none outlives it. Their tasks and channels, and the observed
// runs' per-processor event shards, belong to the run's pooled storage
// and serve later runs.
//
// Fallbacks (the sequential path runs instead, transparently):
//   - DynamicSched: the least-loaded argmin serializes scheduling;
//   - doalls whose body contains critical/ordered sections (seqOnly):
//     those communicate between iterations mid-epoch.
package sim

import (
	"slices"
	"unsafe"

	"repro/internal/obs"
)

// hostPar is the per-run host-parallel execution state. Its tasks,
// event shards, panic slots and channels keep their capacity across runs
// in the run storage; the rest is set per run.
type hostPar struct {
	r       *Runner
	workers int

	tasks []*task // one reusable task per worker
	// obsShards holds one event shard per simulated processor on an
	// observed run and is empty otherwise. Its capacity, and each
	// shard's event buffer, outlive the run.
	obsShards []obs.ShardRecorder

	panics []panicked // one slot per worker

	// The epoch the workers run when woken: its DOALL, bounds and block
	// size.
	ld            *loweredDoall
	lo, hi, chunk int64

	wake    []chan bool   // per worker: true runs the epoch above, false stops
	done    chan struct{} // one send per worker per wake
	running bool          // the workers are started (parked between epochs)
}

// panicked records a worker goroutine's recovered panic.
type panicked struct {
	proc int
	val  any
}

// setupHostParallel decides once per Run whether DOALL epochs may shard,
// and readies the worker state if so.
func (r *Runner) setupHostParallel() {
	r.hostpar, r.hostparOff = nil, ""
	if r.cfg.HostParallel <= 1 || r.cfg.Procs <= 1 || r.cfg.DynamicSched {
		switch {
		case r.cfg.HostParallel <= 1:
			r.hostparOff = "host parallelism is disabled (-hostpar<=1)"
		case r.cfg.Procs <= 1:
			r.hostparOff = "a single simulated processor leaves nothing to shard"
		default:
			r.hostparOff = "dynamic self-scheduling serializes epoch dispatch"
		}
		return
	}
	w := r.cfg.HostParallel
	if w > r.cfg.Procs {
		w = r.cfg.Procs
	}
	hp := &r.hp
	hp.r, hp.workers = r, w
	for len(hp.tasks) < w {
		hp.tasks = append(hp.tasks, &task{})
		hp.wake = append(hp.wake, make(chan bool, 1))
	}
	for _, wt := range hp.tasks[:w] {
		wt.r = r
	}
	hp.panics = zeroed(hp.panics, w)
	if cap(hp.done) < w {
		hp.done = make(chan struct{}, w)
	}
	if r.rec != nil {
		hp.obsShards = slices.Grow(hp.obsShards[:0], r.cfg.Procs)[:r.cfg.Procs]
	}
	r.hostpar = hp
}

// run executes one DOALL epoch's iterations across the host workers and
// performs the deterministic barrier merge. t is the scheduling task
// (bounds already evaluated, dispatch already charged).
func (hp *hostPar) run(ld *loweredDoall, t *task, lo, hi int64) {
	r := hp.r
	procs := int64(r.cfg.Procs)
	hp.ld, hp.lo, hp.hi, hp.chunk = ld, lo, hi, (hi-lo+1+procs-1)/procs

	r.sys.BeginParallelEpoch(r.epoch)
	for _, wt := range hp.tasks[:hp.workers] {
		// Fresh frame per epoch: the workers read enclosing loop-variable
		// slots, so each needs its own copy of the scheduler's frame.
		wt.slots = append(wt.slots[:0], t.slots...)
		wt.arrays, wt.bases = t.arrays, t.bases
		wt.inCrit = false
	}
	if !hp.running {
		hp.running = true
		for w := 0; w < hp.workers; w++ {
			go hp.work(w)
		}
	}
	for w := 0; w < hp.workers; w++ {
		hp.wake[w] <- true
	}
	for w := 0; w < hp.workers; w++ {
		<-hp.done
	}

	// Re-raise one panic deterministically: the lowest simulated
	// processor wins, so a failing run fails identically at any worker
	// count. Merge first — runError recovery in Run still reports stats
	// consistent with the work that completed.
	r.sys.EndParallelEpoch()
	for i := range hp.obsShards {
		r.rec.Drain(&hp.obsShards[i])
	}
	var pk *panicked
	for i := range hp.panics {
		pv := &hp.panics[i]
		if pv.val == nil {
			continue
		}
		if pk == nil || pv.proc < pk.proc {
			pk = pv
		}
	}
	if pk != nil {
		val := pk.val
		clear(hp.panics)
		panic(val)
	}
}

// work is worker w's goroutine: it runs its shard of every epoch it is
// woken for and exits when woken to stop, acknowledging each on done.
func (hp *hostPar) work(w int) {
	for <-hp.wake[w] {
		hp.shard(w)
		hp.done <- struct{}{}
	}
	hp.done <- struct{}{}
}

// shard simulates worker w's processors w, w+W, w+2W, ... through the
// current epoch. Each processor's slice of the iteration space matches
// the sequential scheduler exactly.
func (hp *hostPar) shard(w int) {
	r, ld, wt := hp.r, hp.ld, hp.tasks[w]
	defer func() {
		if v := recover(); v != nil {
			hp.panics[w] = panicked{proc: wt.proc, val: v}
		}
	}()
	procs, lo, hi, chunk := int64(r.cfg.Procs), hp.lo, hp.hi, hp.chunk
	for p := int64(w); p < procs; p += int64(hp.workers) {
		wt.proc = int(p)
		wt.st = r.sys.LaneStats(int(p))
		if len(hp.obsShards) > 0 {
			wt.rec = &hp.obsShards[p]
		}
		it, step, last := lo+p*chunk, int64(1), lo+(p+1)*chunk-1
		if r.cfg.CyclicSched {
			it, step, last = lo+p, procs, hi
		} else if last > hi {
			last = hi
		}
		for ; it <= last; it += step {
			wt.slots[ld.varSlot] = it
			wt.charge(2) // per-task scheduling overhead
			for _, s := range ld.body {
				s(wt)
			}
		}
	}
}

// stop ends the run's workers, if it started any, and waits until each
// has acknowledged.
func (hp *hostPar) stop() {
	if !hp.running {
		return
	}
	for w := 0; w < hp.workers; w++ {
		hp.wake[w] <- false
	}
	for w := 0; w < hp.workers; w++ {
		<-hp.done
	}
	hp.running = false
}

// chanBytes is about what one small channel keeps alive (the runtime's
// channel header and its buffer).
const chanBytes = 128

// scrub drops the state's references into the finished run, keeping the
// worker tasks, channels and event shards, and reports the bytes it
// keeps: a shard's buffer is as large as the most events one processor
// made in one epoch of any run it served.
func (hp *hostPar) scrub() int64 {
	hp.r, hp.ld = nil, nil
	size := int64(cap(hp.tasks))*ptrSize + int64(cap(hp.wake))*(ptrSize+chanBytes) + chanBytes +
		int64(cap(hp.panics))*int64(unsafe.Sizeof(panicked{})) +
		int64(cap(hp.obsShards))*int64(unsafe.Sizeof(obs.ShardRecorder{}))
	shards := hp.obsShards[:cap(hp.obsShards)]
	for i := range shards {
		size += shards[i].Reset()
	}
	hp.obsShards = hp.obsShards[:0]
	for _, wt := range hp.tasks {
		size += wt.scrub()
	}
	return size
}
