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
//     its own same-epoch writes even after a conflict eviction. The
//     forwarding index is an open-addressed table (overlay below) whose
//     epoch reset is one generation increment.
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
	"math/bits"
	"unsafe"

	"repro/internal/cache"
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
	overlay  overlay     // addr -> index of latest entry in writes
	stShard  stats.Stats // backing store for St in buffered mode
}

// overlay maps a word to the index of its latest entry in the lane's
// write log. It is a linear-probing table keyed by word, checked on every
// buffered read hit and store, so a miss must be cheap: a slot whose
// stamp differs from gen is empty, and an epoch reset is one gen
// increment instead of a sweep. A withdrawn entry (WriteThrough) keeps
// its slot, so probe chains stay intact, and stores idx -1, which reads
// as absent.
type overlay struct {
	slots []overlaySlot // power-of-two length; nil until the first insert
	shift uint          // 64 - log2(len(slots)), for Fibonacci hashing
	gen   uint32        // stamp of live slots; never 0 once slots exist
	n     int           // live slots (withdrawn ones included)
}

type overlaySlot struct {
	key prog.Word
	idx int32
	gen uint32
}

// overlayMinSlots is the first table size; the table doubles whenever
// it would pass half full.
const overlayMinSlots = 16

// get returns addr's log index, or -1 when addr has no live entry.
func (o *overlay) get(addr prog.Word) int32 {
	if o.n == 0 {
		return -1
	}
	mask := uint64(len(o.slots) - 1)
	for i := o.home(addr); ; i = (i + 1) & mask {
		sl := &o.slots[i]
		if sl.gen != o.gen {
			return -1
		}
		if sl.key == addr {
			return sl.idx
		}
	}
}

// slot returns addr's slot, claiming an empty one (with idx -1) when
// addr has none. The table must have room for one more slot.
func (o *overlay) slot(addr prog.Word) *overlaySlot {
	mask := uint64(len(o.slots) - 1)
	for i := o.home(addr); ; i = (i + 1) & mask {
		sl := &o.slots[i]
		if sl.gen != o.gen {
			*sl = overlaySlot{key: addr, idx: -1, gen: o.gen}
			o.n++
			return sl
		}
		if sl.key == addr {
			return sl
		}
	}
}

func (o *overlay) home(addr prog.Word) uint64 {
	return (uint64(addr) * 0x9E3779B97F4A7C15) >> o.shift
}

// reserve makes room for one more slot: the table doubles once it would
// pass half full.
func (o *overlay) reserve() {
	if 2*(o.n+1) > len(o.slots) {
		o.grow()
	}
}

// grow doubles the table, rehashing the live entries and dropping the
// withdrawn ones.
func (o *overlay) grow() {
	old, oldGen := o.slots, o.gen
	size := max(2*len(old), overlayMinSlots)
	o.slots = make([]overlaySlot, size)
	o.shift = uint(64 - bits.TrailingZeros(uint(size)))
	o.gen, o.n = 1, 0
	for i := range old {
		if sl := &old[i]; sl.gen == oldGen && sl.idx >= 0 {
			o.slot(sl.key).idx = sl.idx
		}
	}
}

// reset empties the table for the next epoch: one generation step, and a
// full clear only when the stamp wraps.
func (o *overlay) reset() {
	o.n = 0
	o.gen++
	if o.gen == 0 {
		clear(o.slots)
		o.gen = 1
	}
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
		if i := l.overlay.get(addr); i >= 0 {
			return l.writes[i].val
		}
	}
	return l.mem.Read(addr)
}

// LastWriteEpoch mirrors memory.LastWriteEpoch through the write buffer.
func (l *Lane) LastWriteEpoch(addr prog.Word) int64 {
	if l.buffered && l.overlay.get(addr) >= 0 {
		return l.epoch
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
	l.overlay.reserve()
	sl := l.overlay.slot(addr)
	if sl.idx >= 0 {
		// Same-word rewrite: keep one log entry per word (the barrier
		// applies the last value; intermediate values are unobservable
		// because only this processor may touch the word this epoch).
		l.writes[sl.idx].val = val
		return
	}
	sl.idx = int32(len(l.writes))
	l.writes = append(l.writes, laneWrite{addr: addr, val: val})
}

// WriteThrough performs a store that must be globally visible NOW — a
// critical-section (or ordered-section) store. Those only occur in
// sequential (seqOnly) epochs, so eager application is deterministic in
// both execution modes. If this processor has a buffered same-epoch store
// to the word, that log entry is withdrawn (overlay index -1, log entry
// turned into a skip sentinel): the proc-major barrier flush must not
// re-apply a pre-critical value over the program-order-final one — under cyclic
// scheduling several processors' critical stores to one word interleave
// in iteration order, not processor order.
func (l *Lane) WriteThrough(addr prog.Word, val float64, proc int, epoch int64) {
	if l.buffered {
		if i := l.overlay.get(addr); i >= 0 {
			l.overlay.slot(addr).idx = -1
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
		if i := l.overlay.get(addr); i >= 0 {
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

// TablePool recycles per-processor tables (lane sets, action logs) across
// runs, on a free list the garbage collector does not drain (see
// cache.FreeList). A table goes back at its full capacity, so one grown
// by a large-P run also serves every smaller run after it, and a table
// too small for a run is grown in place, keeping the entries it has.
type TablePool[T any] struct {
	list  cache.FreeList[[]T]
	bytes func(T) int64 // what one entry keeps alive beyond its slot
}

// NewTablePool returns a pool of tables whose entries each keep
// bytes(entry) bytes alive, for the free lists' shared budget.
func NewTablePool[T any](bytes func(T) int64) *TablePool[T] {
	return &TablePool[T]{bytes: bytes}
}

// Get returns a table of length procs. Entries come back as the last run
// that used them left them; callers scrub what they reuse.
func (tp *TablePool[T]) Get(procs int) []T {
	t, _ := tp.list.Get()
	if cap(t) < procs {
		t = append(t[:cap(t)], make([]T, procs-cap(t))...)
	}
	return t[:procs]
}

// Put returns a table to the pool; the caller must not use it afterwards.
func (tp *TablePool[T]) Put(t []T) {
	t = t[:cap(t)]
	var zero T
	size := int64(len(t)) * int64(unsafe.Sizeof(zero))
	for _, e := range t {
		size += tp.bytes(e)
	}
	tp.list.Put(t, size)
}

// lanesPool recycles lane sets across runs: the write logs and overlay
// tables grow to an epoch's working set once and are then reused
// instead of reallocated per run.
var lanesPool = NewTablePool(func(l *Lane) int64 {
	if l == nil {
		return 0
	}
	return int64(unsafe.Sizeof(*l)) + int64(cap(l.writes))*int64(unsafe.Sizeof(laneWrite{})) +
		int64(cap(l.overlay.slots))*int64(unsafe.Sizeof(overlaySlot{}))
})

// ensureLanes installs the per-processor lane table. Individual lanes
// are built lazily by LaneFor on a processor's first reference, so a
// large-P configuration whose epochs touch few processors never pays
// P× lane construction; pooled lane sets may carry nil entries for
// processors a previous run never touched.
func (c *Core) ensureLanes() {
	if c.lanes != nil {
		return
	}
	c.lanes = lanesPool.Get(c.Cfg.Procs)
	for p, l := range c.lanes {
		if l == nil {
			continue
		}
		l.mem = c.Memory
		l.proc = p
		l.epoch = c.laneEpoch
	}
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
	}
	l.St = &l.stShard
	c.lanes[p] = l
	return l
}

// OwnReleaser is a scheme's own release step: it returns what the scheme
// built beyond Core's cache set (action logs, on-chip L1s) to their
// pools. Core.ReleaseCaches runs it before returning the cache set and
// the lanes.
type OwnReleaser interface {
	ReleaseOwn()
}

// OnRelease registers the scheme's own release step; call once, at
// construction.
func (c *Core) OnRelease(r OwnReleaser) { c.release = r }

// ReleaseCaches implements Releaser for every scheme: the scheme's
// OnRelease step, then the cache set, the home table, the lanes and the
// memory image. Schemes do not override it, so no scheme can forget to
// return its caches, home state, lanes or memory. Memory goes nil, so a
// released system fails loudly instead of sharing its image with the
// next run, and a second release is a no-op.
func (c *Core) ReleaseCaches() {
	if c.Memory == nil {
		return
	}
	if c.release != nil {
		c.release.ReleaseOwn()
	}
	c.releaseCaches()
	if c.home != nil {
		c.home.release()
		c.home = nil
	}
	c.releaseLanes()
	memory.Release(c.Memory)
	c.Memory, c.seqLane.mem = nil, nil
}

// releaseLanes returns the per-processor lanes to the shared pool for
// the next run. Each lane is scrubbed (log truncated, overlay emptied,
// shard zeroed, memory unbound) so a pooled lane can never leak one
// run's state into the next.
func (c *Core) releaseLanes() {
	if c.lanes == nil {
		return
	}
	for _, l := range c.lanes {
		if l == nil {
			continue
		}
		l.mem = nil
		l.writes = l.writes[:0]
		l.overlay.reset()
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
		l.overlay.reset()
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
