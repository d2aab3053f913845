// Package memsys defines the interface between the execution-driven
// simulator and a coherence scheme's memory system, plus the state and
// helpers shared by the scheme implementations (the per-processor cache
// set, the write-validate store, miss classification, fills and
// evictions, network-latency accounting).
//
// All schemes move real float64 values: the simulator reads through the
// simulated caches, so any coherence bug corrupts the computation and is
// caught by the sequential-equivalence tests and the staleness oracle.
package memsys

import (
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/network"
	"repro/internal/prog"
	"repro/internal/stats"
)

// ReadKind tells the memory system how the compiler marked a read.
type ReadKind int

const (
	// ReadRegular is an ordinary load.
	ReadRegular ReadKind = iota
	// ReadTime is a Time-Read with an epoch window.
	ReadTime
	// ReadBypass always fetches from memory.
	ReadBypass
)

func (k ReadKind) String() string {
	switch k {
	case ReadRegular:
		return "regular-read"
	case ReadTime:
		return "time-read"
	case ReadBypass:
		return "bypass-read"
	default:
		return "?"
	}
}

// HitContext is String()+" hit" without the per-call concatenation (it
// labels every cache hit's freshness check, a hot path).
func (k ReadKind) HitContext() string {
	switch k {
	case ReadRegular:
		return "regular-read hit"
	case ReadTime:
		return "time-read hit"
	case ReadBypass:
		return "bypass-read hit"
	default:
		return "? hit"
	}
}

// System is a coherence scheme's memory system for one machine: the
// whole scheme contract. Every scheme embeds *Core, which supplies the
// lane, barrier, probe, and cluster-traffic methods; a scheme supplies
// its reference paths and its stream cursors. Every system therefore runs
// on every execution path — sequential scalar, the affine stream fast
// path, and host-parallel sharding — with bit-identical results.
type System interface {
	// Name returns the scheme name ("TPI", "HW", ...).
	Name() string
	// Read performs a load by processor p and returns the value and the
	// processor stall in cycles. window is the Time-Read epoch window
	// (ReadTime only).
	Read(p int, addr prog.Word, kind ReadKind, window int) (float64, int64)
	// Write performs a store by processor p and returns the processor
	// stall in cycles (usually 0: writes are buffered under weak
	// consistency). crit marks critical-section stores, which must be
	// immediately visible to same-epoch bypass readers and must not leave
	// epoch-fresh copies behind in HSCD caches.
	Write(p int, addr prog.Word, val float64, crit bool) int64
	// EpochBoundary announces the global barrier advancing the epoch
	// counter to epoch; it returns any extra stall applied to every
	// processor (e.g. a two-phase timetag reset).
	EpochBoundary(epoch int64) int64
	// Mem exposes the authoritative memory (for initialization and
	// end-of-run result extraction).
	Mem() *memory.Memory
	// Stats exposes the run's measurements.
	Stats() *stats.Stats
	// Net exposes the network model (the simulator advances its clock).
	Net() network.Net

	// InitReadCursor prepares c to perform processor p's reads of the
	// given compiler mark (see stream.go). addr0 is the stream's first
	// address; schemes whose hit predicate depends on the referenced
	// variable (VC's per-variable version cut) may capture state derived
	// from it — the affine entry guards keep every stream address inside
	// one variable. Cursors capture the processor's current Lane, so
	// they are valid for one loop entry within one epoch.
	InitReadCursor(c *ReadCursor, p int, kind ReadKind, window int, addr0 prog.Word)
	// InitWriteCursor prepares c to perform processor p's non-critical
	// writes; addr0 as for InitReadCursor.
	InitWriteCursor(c *WriteCursor, p int, addr0 prog.Word)

	// BeginParallelEpoch switches LaneFor to per-processor buffered lanes
	// for the epoch being entered. Between Begin and EndParallelEpoch,
	// concurrent Read/Write calls for distinct processors touch only
	// per-processor state (caches, trackers, write buffers) plus that
	// processor's Lane (see lane.go).
	BeginParallelEpoch(epoch int64)
	// EndParallelEpoch performs the barrier merge: buffered writes apply
	// to memory in (processor, sequence) order, stats shards sum into the
	// shared Stats, and batched traffic injects into the network.
	EndParallelEpoch()
	// LaneStats exposes processor p's active counter sink (its lane shard
	// inside a parallel epoch or under always-buffered execution, the
	// shared Stats otherwise).
	LaneStats(p int) *stats.Stats
	// EpochBuffered reports that epochs run on buffered lanes in every
	// execution mode (EnableAlwaysBuffered), so the simulator must call
	// FlushEpoch at every barrier.
	EpochBuffered() bool
	// FlushEpoch performs the always-buffered barrier merge — before
	// barrier cycles are charged and the network clock advances — so lane
	// merges and any deferred protocol replay happen at one canonical
	// point in both execution modes. Schemes with deferred protocol state
	// (the HW directory's and Tardis's action logs) override it to replay
	// that state after the lane merge.
	FlushEpoch()
	// SetProbe attaches an observer of coherence events (see Probe).
	SetProbe(Probe)
	// ClusterHomeWords returns the cumulative words fetched from each mesh
	// cluster's home slice, nil outside the clustered mesh topology.
	ClusterHomeWords() []int64
	// CheckInvariants verifies the scheme's end-of-run protocol
	// invariants; valid only at an epoch barrier. *Core gives the nil
	// default; the HW directory (sharer-set consistency) and Tardis (home
	// timestamp ordering) override it.
	CheckInvariants() error

	Releaser
}

// Releaser is part of every System, implemented once by *Core (see
// Core.ReleaseCaches): a run's per-processor structures go back to their
// construction pools once its results have been fully extracted (stats,
// memory snapshot, invariant checks). core's run body calls it on every
// path, error or not; a released system must not be used again.
type Releaser interface {
	// ReleaseCaches returns the caches, trackers, logs, lanes and the
	// memory image to their pools; a second call does nothing.
	ReleaseCaches()
}

// Versioned is implemented by schemes that track per-variable version
// numbers (the Cheong–Veidenbaum version-control scheme): the simulator
// reports, at each epoch boundary, which variables the finished epoch may
// have modified.
type Versioned interface {
	// EpochMods announces the globals the epoch that just finished may
	// have written, by position in the program's prog.Prog.Vars; the
	// scheme advances their current version numbers.
	EpochMods(vars []int)
}

// Probe receives coherence-protocol events that happen outside the
// processor's own reference stream (so the simulator's read/write hooks
// cannot see them). Calls are rare — per invalidation or per reset phase,
// never per reference — so implementations may do real work. Schemes hold
// a nil Probe by default and must guard every call.
type Probe interface {
	// Invalidation reports that writer's store to addr invalidated the
	// copy held by processor victim; class is MissTrueSharing if the
	// victim had referenced that word, MissFalseSharing otherwise, or
	// MissReplace for capacity-driven sharer eviction (limited pointers).
	Invalidation(writer, victim int, addr prog.Word, class stats.MissClass)
	// TimetagReset reports a timetag reset phase at an epoch boundary
	// that invalidated words cache words across all processors.
	TimetagReset(epoch int64, words int64)
}

// Core bundles the state every scheme implementation shares.
type Core struct {
	Cfg    machine.Config
	Memory *memory.Memory
	Netw   network.Net
	// Lat is Netw's latency table for single words and whole lines,
	// current as of the last epoch barrier.
	Lat   *network.Latency
	St    stats.Stats
	Epoch int64

	// Probe, when non-nil, observes coherence events (see Probe).
	Probe Probe

	// Host-parallel lane state (see lane.go). seqLane passes through to
	// the shared state above; lanes holds the per-processor buffered
	// lanes, allocated lazily on the first parallel epoch (eagerly under
	// alwaysBuffered). par flips only while the simulator is
	// single-threaded (before goroutine spawn / after join), so LaneFor
	// needs no synchronization. alwaysBuffered (EnableAlwaysBuffered)
	// makes sequential epochs buffer too, with the merge deferred to
	// FlushEpoch at the simulator's barrier.
	seqLane        Lane
	lanes          []*Lane
	laneEpoch      int64
	par            bool
	alwaysBuffered bool

	// release is the scheme's own release step (OnRelease).
	release OwnReleaser

	// The caching schemes' per-processor cache sets (EnableCaches; see
	// caches.go): nil for BASE and the Oracle; writeBuffers is false for
	// the HW directory's write-back caches.
	caches       []procCaches
	writeBuffers bool

	// home is the scheme's per-line home state (EnableHome; see
	// linetable.go): nil for the schemes that keep none.
	home *LineTable

	// Mesh home mapping: homeClusters > 0 interleaves memory lines
	// across per-cluster home slices instead of individual processors,
	// and clusterWords tallies the fetch traffic each home slice served
	// (updated atomically: host-parallel workers charge misses
	// concurrently, and order-free sums keep the totals deterministic).
	// Zero/nil outside the mesh topology.
	homeClusters int
	clusterSize  int
	clusterWords []int64
}

// SetProbe implements System.
func (c *Core) SetProbe(p Probe) { c.Probe = p }

// CheckInvariants implements System for schemes without end-of-run
// protocol invariants.
func (c *Core) CheckInvariants() error { return nil }

// NewCore builds the shared state for a scheme. The memory extent is
// rounded up to a whole number of cache lines so line fills at the end of
// the data segment stay in bounds (the padding words belong to no array).
func NewCore(cfg machine.Config, memWords int64) *Core {
	lw := int64(cfg.LineWords)
	if lw > 0 {
		memWords = (memWords + lw - 1) / lw * lw
	}
	c := &Core{
		Cfg:    cfg,
		Memory: memory.New(memWords),
	}
	switch cfg.Topology {
	case "torus":
		c.Netw = network.NewMesh(cfg.Procs, 1, true)
	case "mesh":
		c.clusterSize = cfg.MeshClusterSize()
		c.homeClusters = cfg.Clusters()
		c.clusterWords = make([]int64, c.homeClusters)
		c.Netw = network.NewMesh(cfg.Procs, c.clusterSize, false)
	default:
		c.Netw = network.New(cfg.Procs, cfg.SwitchArity)
	}
	c.Lat = c.Netw.Latencies(cfg.LineWords)
	c.St.Scheme = cfg.Scheme.String()
	c.seqLane = Lane{St: &c.St, mem: c.Memory, net: c.Netw}
	return c
}

// Mem implements System.
func (c *Core) Mem() *memory.Memory { return c.Memory }

// Stats implements System.
func (c *Core) Stats() *stats.Stats { return &c.St }

// Net implements System.
func (c *Core) Net() network.Net { return c.Netw }

// HomeOf returns the memory module (home node) of a word: lines are
// interleaved across the processors' local memories, as on the T3D —
// or, under the clustered mesh, across the clusters' home slices (the
// home is the cluster's first processor; every processor of the
// cluster is the same mesh node, so any representative gives the same
// network distance).
func (c *Core) HomeOf(addr prog.Word) int {
	line := int64(addr) / int64(c.Cfg.LineWords)
	if c.homeClusters > 0 {
		return int(line%int64(c.homeClusters)) * c.clusterSize
	}
	return int(line % int64(c.Cfg.Procs))
}

// ClusterHomeWords implements System: a copy of the cumulative words
// fetched from each mesh cluster's home slice, nil outside the clustered
// mesh topology. Reads are atomic, so sampling mid-run is safe; at
// epoch barriers the totals are deterministic (order-free sums).
func (c *Core) ClusterHomeWords() []int64 {
	if c.clusterWords == nil {
		return nil
	}
	out := make([]int64, len(c.clusterWords))
	for i := range c.clusterWords {
		out[i] = atomic.LoadInt64(&c.clusterWords[i])
	}
	return out
}

// noteHomeFetch charges a home-slice fetch of the given payload against
// the home's cluster (mesh only; no-op elsewhere).
func (c *Core) noteHomeFetch(home int, words int64) {
	if c.clusterWords != nil {
		atomic.AddInt64(&c.clusterWords[home/c.clusterSize], words)
	}
}

// ClassifyMissLane decides the miss class for a word that is absent
// from processor p's cache, using the per-word tracker history and, for
// words lost to resets, whether the data actually changed since. It reads
// write-epoch provenance through the lane, so reset losses see the
// processor's own buffered same-epoch stores.
func (c *Core) ClassifyMissLane(ln *Lane, tr *cache.Tracker, addr prog.Word) stats.MissClass {
	if !tr.Seen(addr) {
		return stats.MissCold
	}
	reason, lostTT := tr.Lost(addr)
	switch reason {
	case cache.LostReplaced:
		return stats.MissReplace
	case cache.LostInvalTrue:
		return stats.MissTrueSharing
	case cache.LostInvalFalse:
		return stats.MissFalseSharing
	case cache.LostReset:
		// A reset dropped the word; if nobody wrote it since the copy was
		// made, the re-fetch is a pure artifact of the small timetag.
		if ln.LastWriteEpoch(addr) > lostTT {
			return stats.MissTrueSharing
		}
		return stats.MissConservative
	default:
		// Seen but never recorded as lost: a word-grain hole in a present
		// line (e.g. write-validate fill neighbours): treat as cold.
		return stats.MissCold
	}
}

// FillLane fills the whole line containing addr into cc with fresh data
// and returns the frame and word index. Fill data comes from the lane, so
// a processor refetching a line it stored to this epoch (write-validate
// eviction followed by a read) sees its own buffered values. Timetags:
// the accessed word gets ttAccessed, its neighbours ttNeighbour (the TPI
// fill rule; write-through schemes pass the epoch for both). The tracker
// records eviction losses and the new residency. The claimed frame is
// invalid, so its used bits are already clear.
func (c *Core) FillLane(ln *Lane, cc *cache.Cache, tr *cache.Tracker, addr prog.Word, ttAccessed, ttNeighbour int64) (cache.Frame, int) {
	f := replaceFrame(ln, cc, tr, addr)
	tag, w := cc.Split(addr)
	base := cc.LineBase(addr)
	cc.Install(f, tag, cache.Shared)
	for i := 0; i < cc.LineWords(); i++ {
		a := base + prog.Word(i)
		cc.SetVal(f, i, ln.Value(a))
		if i == w {
			cc.SetTT(f, i, ttAccessed)
		} else {
			cc.SetTT(f, i, ttNeighbour)
		}
		tr.NoteCached(a)
	}
	cc.MarkUsed(f, w)
	cc.Touch(f)
	return f, w
}

// LineMissLatencyFor is the read-miss stall: base miss cost plus a
// request from processor p to the word's home node and a line-sized
// reply back.
func (c *Core) LineMissLatencyFor(p int, addr prog.Word) int64 {
	home := c.HomeOf(addr)
	c.noteHomeFetch(home, int64(c.Cfg.LineWords)+1)
	return c.Cfg.MissCycles + c.Lat.LineRoundTrip(p, home)
}

// WordMissLatencyFor is the stall of an uncached single-word fetch by
// processor p from the word's home node.
func (c *Core) WordMissLatencyFor(p int, addr prog.Word) int64 {
	home := c.HomeOf(addr)
	c.noteHomeFetch(home, 2)
	return c.Cfg.MissCycles + c.Lat.WordRoundTrip(p, home)
}

// ReadClassified performs processor p's read through sys and recovers
// its miss class by diffing st, the counter sink the read lands in:
// every scheme increments exactly one of ReadHits or one ReadMisses cell
// per read, so the diff is exact without widening System. Class -1
// means a hit.
func ReadClassified(sys System, st *stats.Stats, p int, addr prog.Word, kind ReadKind, window int) (float64, int64, int8) {
	hits, misses := st.ReadHits, st.ReadMisses
	v, stall := sys.Read(p, addr, kind, window)
	return v, stall, missClass(st.ReadHits != hits, &misses, &st.ReadMisses)
}

// WriteClassified is ReadClassified for a write.
func WriteClassified(sys System, st *stats.Stats, p int, addr prog.Word, val float64, crit bool) (int64, int8) {
	hits, misses := st.WriteHits, st.WriteMisses
	stall := sys.Write(p, addr, val, crit)
	return stall, missClass(st.WriteHits != hits, &misses, &st.WriteMisses)
}

// missClass is the class whose counter moved between before and after,
// -1 for a hit.
func missClass(hit bool, before, after *stats.ClassCounts) int8 {
	if !hit {
		for i := range after {
			if after[i] != before[i] {
				return int8(i)
			}
		}
	}
	return -1
}
