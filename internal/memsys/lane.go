package memsys

// Host-parallel epoch execution support.
//
// A DOALL epoch has no cross-iteration dependences, writes drain at the
// epoch boundary, and the mid-epoch coherence decisions of every scheme
// are processor-local: timetags and bypass bits involve no mid-epoch
// cross-processor messages, and shared protocol state is frozen until
// the barrier (see below). That property makes the
// *simulation* of one epoch parallelizable across host goroutines without
// changing a single simulated cycle — work inside an epoch may be
// reordered freely as long as it re-serializes at the barrier.
//
// A Lane is one simulated processor's view of the state that is otherwise
// shared between processors: the stats counters, the network-injection
// accounting, and the authoritative memory. In sequential execution every
// processor uses the single pass-through lane, which writes straight
// through to the shared state — the pre-lane behavior, bit for bit. Inside
// a host-parallel epoch each processor gets a private buffered lane:
//
//   - counters accumulate into a private stats.Stats shard, summed into
//     the shared Stats at the barrier (integer sums are order-free, so
//     the totals are bit-identical to sequential execution);
//   - network injections accumulate into a private word counter, injected
//     into the shared model once at the barrier — the Kruskal–Snir EWMA
//     only advances at AdvanceTo, so mid-epoch delay lookups are
//     read-only and identical in both modes;
//   - stores append to a private write log and are applied to memory at
//     the barrier in (processor, sequence) order. DOALL independence
//     guarantees per-epoch write-sets are pairwise disjoint across
//     processors (asserted by TestDoallWriteSetsDisjoint), so the final
//     memory image is the sequential one. Reads forward from the lane's
//     own log first (store-buffer forwarding), so a processor always sees
//     its own same-epoch writes even after a conflict eviction.
//
// Every scheme routes each reference-path access to shared state
// through LaneFor(p). Schemes whose reference paths *observe memory
// values* mid-epoch beyond the accessed
// word (the HW directory fills whole lines; VC compares cached values
// against memory to split true-sharing from conservative misses) would
// see different neighbor values in pass-through mode (memory already
// holds other processors' same-epoch stores) than in buffered mode. Those
// schemes call EnableAlwaysBuffered at construction: every epoch runs on
// buffered lanes in BOTH sequential and host-parallel execution, and the
// merge is deferred to FlushEpoch at the simulator's epoch barrier — one
// canonical memory-visibility rule, so the two modes are bit-identical by
// construction. Cross-processor *protocol* state (the directory's sharer
// lists) is handled by the scheme itself: mutations are logged per lane
// mid-epoch and replayed in (processor, sequence) order inside its
// FlushEpoch override (see internal/directory).

import (
	"fmt"
	"sync"

	"repro/internal/memory"
	"repro/internal/network"
	"repro/internal/prog"
	"repro/internal/stats"
)

// laneWrite is one buffered store of a host-parallel epoch.
type laneWrite struct {
	addr prog.Word
	val  float64
}

// Lane is a per-processor view of the cross-processor run state. The
// reference paths of every scheme go through a lane for every
// counter update, network injection, and memory access.
type Lane struct {
	// St receives the scheme's reference counters: the shared run Stats
	// in pass-through mode, a private shard inside a parallel epoch.
	St *stats.Stats

	mem      *memory.Memory
	net      network.Net // pass-through target; nil when buffered
	buffered bool
	proc     int
	epoch    int64
	inj      int64
	writes   []laneWrite
	overlay  map[prog.Word]int32 // addr -> index of latest entry in writes
	stShard  stats.Stats         // backing store for St in buffered mode
}

// Inject records words entering the network: straight to the model in
// pass-through mode, batched until the barrier in buffered mode.
func (l *Lane) Inject(words int64) {
	if l.buffered {
		l.inj += words
		return
	}
	l.net.Inject(words)
}

// FreshWords returns the authoritative word store for inlining the
// staleness-oracle compare, or nil when the lane is buffered (a buffered
// lane must consult its own write log first, so callers fall back to
// CheckFresh). Read-only by contract.
func (l *Lane) FreshWords() []float64 {
	if l.buffered {
		return nil
	}
	return l.mem.Words()
}

// Value returns the current value of a word as this processor must see
// it: its own buffered same-epoch store if one exists, else memory.
func (l *Lane) Value(addr prog.Word) float64 {
	if l.buffered {
		if i, ok := l.overlay[addr]; ok {
			return l.writes[i].val
		}
	}
	return l.mem.Read(addr)
}

// LastWriteEpoch mirrors memory.LastWriteEpoch through the write buffer.
func (l *Lane) LastWriteEpoch(addr prog.Word) int64 {
	if l.buffered {
		if _, ok := l.overlay[addr]; ok {
			return l.epoch
		}
	}
	return l.mem.LastWriteEpoch(addr)
}

// Write performs a store: straight through in pass-through mode, logged
// for the barrier in buffered mode (with forwarding for later reads).
func (l *Lane) Write(addr prog.Word, val float64, proc int, epoch int64) {
	if !l.buffered {
		l.mem.Write(addr, val, proc, epoch)
		return
	}
	l.epoch = epoch
	if i, ok := l.overlay[addr]; ok {
		// Same-word rewrite: keep one log entry per word (the barrier
		// applies the last value; intermediate values are unobservable
		// because only this processor may touch the word this epoch).
		l.writes[i].val = val
		return
	}
	l.overlay[addr] = int32(len(l.writes))
	l.writes = append(l.writes, laneWrite{addr: addr, val: val})
}

// WriteThrough performs a store that must be globally visible NOW — a
// critical-section (or ordered-section) store. Those only occur in
// sequential (seqOnly) epochs, so eager application is deterministic in
// both execution modes. If this processor has a buffered same-epoch store
// to the word, that log entry is withdrawn (overlay removed, slot turned
// into a skip sentinel): the proc-major barrier flush must not re-apply a
// pre-critical value over the program-order-final one — under cyclic
// scheduling several processors' critical stores to one word interleave
// in iteration order, not processor order.
func (l *Lane) WriteThrough(addr prog.Word, val float64, proc int, epoch int64) {
	if l.buffered {
		if i, ok := l.overlay[addr]; ok {
			delete(l.overlay, addr)
			l.writes[i] = laneWrite{addr: -1}
		}
	}
	l.mem.Write(addr, val, proc, epoch)
}

// CheckFresh is the staleness oracle through the lane: a hit on a word
// this processor wrote this epoch must match the buffered value; any
// other hit must match authoritative memory.
func (l *Lane) CheckFresh(addr prog.Word, got float64, proc int, context string) {
	if l.buffered {
		if i, ok := l.overlay[addr]; ok {
			if got != l.writes[i].val {
				panic(fmt.Sprintf("memory: STALE READ by P%d at word %d: got %v, want %v (%s; unretired write by P%d at epoch %d)",
					proc, addr, got, l.writes[i].val, context, l.proc, l.epoch))
			}
			return
		}
	}
	l.mem.CheckFresh(addr, got, proc, context)
}

// EnableAlwaysBuffered switches the core to always-buffered execution:
// LaneFor returns the processor's private buffered lane (built on first
// use) even outside host-parallel epochs. EndParallelEpoch then defers
// the merge to FlushEpoch, which the simulator invokes at every epoch
// barrier (in both execution modes). Call once, at construction.
func (c *Core) EnableAlwaysBuffered() {
	c.alwaysBuffered = true
	c.ensureLanes()
}

// EpochBuffered implements System.
func (c *Core) EpochBuffered() bool { return c.alwaysBuffered }

// FlushEpoch implements System.
func (c *Core) FlushEpoch() { c.FlushEpochLanes() }

// lanesPool recycles lane sets across runs: the write-log slices and
// overlay maps grow to an epoch's working set once and are then reused
// instead of reallocated per run (see memsys.Releaser).
var lanesPool sync.Pool

// ensureLanes installs the per-processor lane table. Individual lanes
// are built lazily by LaneFor on a processor's first reference, so a
// large-P configuration whose epochs touch few processors never pays
// P× lane (and overlay map) construction; pooled lane sets may carry
// nil entries for processors a previous run never touched.
func (c *Core) ensureLanes() {
	if c.lanes != nil {
		return
	}
	if v := lanesPool.Get(); v != nil {
		if ls, ok := v.([]*Lane); ok && len(ls) >= c.Cfg.Procs {
			c.lanes = ls[:c.Cfg.Procs]
			for p, l := range c.lanes {
				if l == nil {
					continue
				}
				l.mem = c.Memory
				l.proc = p
				l.epoch = c.laneEpoch
			}
			return
		}
	}
	c.lanes = make([]*Lane, c.Cfg.Procs)
}

// newLane builds processor p's buffered lane on first use. Inside a
// host-parallel epoch each processor is owned by exactly one worker, so
// concurrent calls write distinct slice elements — no synchronization
// is needed, exactly like the caches the workers allocate.
func (c *Core) newLane(p int) *Lane {
	l := &Lane{
		mem:      c.Memory,
		buffered: true,
		proc:     p,
		epoch:    c.laneEpoch,
		overlay:  make(map[prog.Word]int32),
	}
	l.St = &l.stShard
	c.lanes[p] = l
	return l
}

// ReleaseLanes returns the per-processor lanes to the shared pool for
// the next run. Each lane is scrubbed (log truncated, overlay cleared,
// shard zeroed, memory unbound) so a pooled lane can never leak one
// run's state into the next; schemes call this from ReleaseCaches.
func (c *Core) ReleaseLanes() {
	if c.lanes == nil {
		return
	}
	for _, l := range c.lanes {
		if l == nil {
			continue
		}
		l.mem = nil
		l.writes = l.writes[:0]
		clear(l.overlay)
		l.stShard = stats.Stats{}
		l.inj = 0
		l.epoch = 0
	}
	lanesPool.Put(c.lanes)
	c.lanes = nil
}

// LaneFor returns the lane processor p must route its references
// through: the shared pass-through lane in plain sequential execution,
// the processor's private buffered lane inside a host-parallel epoch or
// under always-buffered execution.
func (c *Core) LaneFor(p int) *Lane {
	if c.par || c.alwaysBuffered {
		if l := c.lanes[p]; l != nil {
			return l
		}
		return c.newLane(p)
	}
	return &c.seqLane
}

// BeginParallelEpoch implements System.
func (c *Core) BeginParallelEpoch(epoch int64) {
	c.ensureLanes()
	c.laneEpoch = epoch
	for _, l := range c.lanes {
		if l != nil {
			l.epoch = epoch
		}
	}
	c.par = true
}

// SetLaneEpoch stamps every lane with the epoch being entered. Under
// always-buffered execution sequential epochs also buffer stores, so the
// scheme's EpochBoundary must forward the new epoch here for the logs'
// memory.Write epoch stamps to stay identical to pass-through execution.
func (c *Core) SetLaneEpoch(epoch int64) {
	c.laneEpoch = epoch
	for _, l := range c.lanes {
		if l != nil {
			l.epoch = epoch
		}
	}
}

// EndParallelEpoch implements System. Under always-buffered execution
// the merge is deferred to FlushEpoch so sequential and host-parallel
// epochs drain at the same canonical point (the simulator's barrier).
func (c *Core) EndParallelEpoch() {
	c.par = false
	if c.alwaysBuffered {
		return
	}
	c.FlushEpochLanes()
}

// FlushEpochLanes applies each processor's buffered epoch state to the
// shared structures: write logs to memory in (processor, sequence) order
// — the deterministic serialization of the epoch; write-set disjointness
// makes it equal to the sequential interleaving — then stats shards and
// batched network traffic. Withdrawn entries (critical-section stores
// applied eagerly by WriteThrough) carry a negative address and are
// skipped.
func (c *Core) FlushEpochLanes() {
	for p, l := range c.lanes {
		if l == nil {
			continue
		}
		for _, w := range l.writes {
			if w.addr < 0 {
				continue
			}
			c.Memory.Write(w.addr, w.val, p, l.epoch)
		}
		l.writes = l.writes[:0]
		clear(l.overlay)
		c.St.Add(&l.stShard)
		l.stShard = stats.Stats{}
		if l.inj != 0 {
			c.Netw.Inject(l.inj)
			l.inj = 0
		}
	}
}

// LaneStats implements System.
func (c *Core) LaneStats(p int) *stats.Stats {
	if c.par || c.alwaysBuffered {
		return c.LaneFor(p).St
	}
	return &c.St
}
