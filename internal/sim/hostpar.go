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
// Fallbacks (the sequential path runs instead, transparently):
//   - DynamicSched: the least-loaded argmin serializes scheduling;
//   - doalls whose body contains critical/ordered sections (seqOnly):
//     those communicate between iterations mid-epoch.
package sim

import (
	"sync"

	"repro/internal/obs"
)

// hostPar is the per-run host-parallel execution state.
type hostPar struct {
	r       *Runner
	workers int

	tasks     []*task              // one reusable task per worker
	obsShards []*obs.ShardRecorder // per simulated processor; nil when no recorder

	panics []panicked // one slot per worker
}

// panicked records a worker goroutine's recovered panic.
type panicked struct {
	proc int
	val  any
}

// setupHostParallel decides once per Run whether DOALL epochs may shard,
// and builds the worker state if so.
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
	hp := &hostPar{r: r, workers: w, panics: make([]panicked, w)}
	hp.tasks = make([]*task, w)
	for i := range hp.tasks {
		hp.tasks[i] = &task{r: r}
	}
	if r.rec != nil {
		hp.obsShards = make([]*obs.ShardRecorder, r.cfg.Procs)
		for p := range hp.obsShards {
			hp.obsShards[p] = &obs.ShardRecorder{}
		}
	}
	r.hostpar = hp
}

// run executes one DOALL epoch's iterations across the host workers and
// performs the deterministic barrier merge. t is the scheduling task
// (bounds already evaluated, dispatch already charged).
func (hp *hostPar) run(ld *loweredDoall, t *task, lo, hi int64) {
	r := hp.r
	procs := int64(r.cfg.Procs)
	chunk := (hi - lo + 1 + procs - 1) / procs
	cyclic := r.cfg.CyclicSched

	r.sys.BeginParallelEpoch(r.epoch)
	var wg sync.WaitGroup
	for w := 0; w < hp.workers; w++ {
		wt := hp.tasks[w]
		// Fresh frame per epoch: the workers read enclosing loop-variable
		// slots, so each needs its own copy of the scheduler's frame.
		wt.slots = append(wt.slots[:0], t.slots...)
		wt.arrays = t.arrays
		wt.inCrit = false
		wg.Add(1)
		go func(w int, wt *task) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					hp.panics[w] = panicked{proc: wt.proc, val: v}
				}
			}()
			// Worker w simulates processors w, w+W, w+2W, ... Each
			// processor's slice of the iteration space matches the
			// sequential scheduler exactly.
			for p := int64(w); p < procs; p += int64(hp.workers) {
				wt.proc = int(p)
				wt.st = r.sys.LaneStats(int(p))
				if hp.obsShards != nil {
					wt.rec = hp.obsShards[p]
				}
				it, step, last := lo+p*chunk, int64(1), lo+(p+1)*chunk-1
				if cyclic {
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
		}(w, wt)
	}
	wg.Wait()

	// Re-raise one panic deterministically: the lowest simulated
	// processor wins, so a failing run fails identically at any worker
	// count. Merge first — runError recovery in Run still reports stats
	// consistent with the work that completed.
	r.sys.EndParallelEpoch()
	if hp.obsShards != nil {
		rec := r.rec
		for _, sh := range hp.obsShards {
			rec.Drain(sh)
		}
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
		for i := range hp.panics {
			hp.panics[i] = panicked{}
		}
		panic(val)
	}
}
