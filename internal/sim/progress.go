// Run-progress sampling: an optional callback invoked at epoch barriers
// with a snapshot of the run's counters, for live telemetry (tpiserved's
// /metrics and per-run SSE streams) without touching the hot reference
// path. All sampling happens at the barrier, after the lane flush and
// merge, where the memory-system totals are sequential-equivalent; with
// no callback attached the cost is one nil test per epoch.
package sim

import (
	"sync/atomic"

	"repro/internal/stats"
)

// Progress is one barrier-sampled snapshot of a running simulation.
// Every numeric field is cumulative over the run (monotonically
// non-decreasing), so consumers may export successive snapshots as
// counter deltas.
type Progress struct {
	// Epoch and Cycles are the global epoch counter and simulated-cycle
	// clock at the sampling barrier. MaxEpochs is the configured runaway
	// bound — the only a-priori "total" an execution-driven run has.
	Epoch     int64
	Cycles    int64
	MaxEpochs int64

	// Stats is a copy of the run's counters at the barrier, after the
	// lane flush and merge, so every counter is the sequential-
	// equivalent total at this epoch. ProcBusy is left nil; Cycles and
	// Epochs are only filled on the final snapshot (use the fields
	// above while the run is live).
	Stats stats.Stats

	// StreamLoops counts recognized affine loops executed through the
	// scheme's stream cursors; StreamFallbacks counts recognized loops
	// that fell back to the scalar path (entry guard failed, or the run
	// configuration kept the fast path off).
	StreamLoops     int64
	StreamFallbacks int64

	// HostParEpochs counts DOALL epochs sharded across host workers;
	// SeqDoallEpochs counts DOALL epochs dispatched sequentially
	// (including seqOnly and dynamic-scheduling epochs).
	// HostParWorkers is the active worker count (0 when host
	// parallelism is off for this run).
	HostParEpochs  int64
	SeqDoallEpochs int64
	HostParWorkers int

	// ClusterWords is the cumulative word traffic served by each mesh
	// cluster's home directory/memory slice, indexed by cluster. Nil for
	// non-mesh topologies. Like every other field it is cumulative, so
	// consumers can export deltas and watch for hot-spotted homes.
	ClusterWords []int64

	// Done marks the final snapshot of the run; Aborted additionally
	// marks a run that ended early (context cancellation, deadline, or
	// a runtime fault) rather than completing.
	Done    bool
	Aborted bool
}

// ProgressFunc receives progress snapshots. It is called on the
// simulating goroutine between epochs — keep it cheap (atomic counter
// updates, a non-blocking channel send); a slow callback stalls the run.
type ProgressFunc func(Progress)

// SetProgress attaches a progress callback, sampled at most once per
// every epochs (minimum 1) plus a final Done snapshot when the run
// completes or aborts. Pass nil to disable. Sampling reads a few dozen
// counters at the barrier; the per-reference hot path is untouched, so
// the run's statistics are bit-identical with or without a callback.
func (r *Runner) SetProgress(fn ProgressFunc, every int64) {
	if every < 1 {
		every = 1
	}
	r.progress = fn
	r.progressEvery = every
}

// maybeEmitProgress fires the callback when the sampling stride has
// elapsed. Called at the end of endEpoch, after the barrier merge.
func (r *Runner) maybeEmitProgress() {
	if r.progress == nil || r.epoch-r.progressLast < r.progressEvery {
		return
	}
	r.progressLast = r.epoch
	r.emitProgress(false, false)
}

func (r *Runner) emitProgress(done, aborted bool) {
	workers := 0
	if r.hostpar != nil {
		workers = r.hostpar.workers
	}
	st := *r.sys.Stats()
	st.ProcBusy = nil
	r.progress(Progress{
		Epoch:           r.epoch,
		Cycles:          r.cycles,
		MaxEpochs:       r.maxEpochs,
		Stats:           st,
		StreamLoops:     r.streamLoops.Load(),
		StreamFallbacks: r.streamFallbacks.Load(),
		HostParEpochs:   r.hostparEpochs,
		SeqDoallEpochs:  r.seqDoallEpochs,
		HostParWorkers:  workers,
		ClusterWords:    r.sys.ClusterHomeWords(),
		Done:            done,
		Aborted:         aborted,
	})
}

// noteStreamRun tallies one streamed loop execution. Stream loops run
// inside host-parallel workers, so the tally is atomic; one add per
// loop entry (not per iteration) is noise against the loop body.
func (r *Runner) noteStreamRun() { r.streamLoops.Add(1) }

// atomicI64 is a tiny alias so the Runner struct reads cleanly.
type atomicI64 = atomic.Int64
