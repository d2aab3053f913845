// Package directory implements the paper's hardware comparison point: a
// full-map, three-state (invalid / read-shared / write-exclusive)
// invalidation-based directory protocol with write-back caches, after
// Censier–Feautrier. Coherence is enforced per cache line, so the scheme
// pays false-sharing misses where TPI pays conservative misses.
//
// Under the weak consistency model writes never stall the processor:
// ownership acquisition, invalidations, and write-backs are charged as
// network traffic and coherence transactions, and read misses that hit
// dirty remote copies pay the extra ownership-forwarding latency.
//
// # Barrier-deferred coherence
//
// The directory itself — sharer lists, owner pointers, line states — is
// the one piece of genuinely cross-processor mid-epoch state in the
// simulator. To put HW on the host-parallel and stream fast paths, the
// protocol is executed in two phases that are identical in sequential
// and host-parallel runs:
//
//   - Mid-epoch, the directory is FROZEN. A reference only touches the
//     issuing processor's own cache, tracker, and lane; decisions that
//     need the directory (forwarding latency for a read of a remote
//     exclusive line, the coherence-transfer charge of a write miss)
//     read the frozen entry. Every directory mutation a reference would
//     have made is appended to the processor's private action log:
//     read fills (actFill / actFillFromOwner), ownership claims — a
//     shared-hit upgrade or a write-miss fill-exclusive — (actClaim),
//     and evictions (actEvict).
//   - At the epoch barrier (FlushEpoch), after the lanes have drained
//     into memory, the logs replay single-threaded in (processor,
//     sequence) order. Claims sweep every OTHER processor's cache for
//     surviving copies of the written line — invalidating, classifying
//     (true/false sharing via the victim's used bit for the written
//     word), and charging write-backs and invalidation traffic — then
//     register the claimant as exclusive owner. Fills and evictions
//     register/clear presence bits against the processor's cache state
//     as it stands at the barrier, so a copy filled and later evicted
//     in the same epoch never leaves a stale presence bit.
//
// Replay order is deterministic and mode-independent, so stats, memory,
// and observation output are bit-identical between sequential and
// host-parallel execution by construction. Relative to an eager
// protocol the model shifts invalidation delivery to the barrier —
// victims keep hitting their copies until the epoch ends, mirroring how
// a relaxed machine may buffer invalidations until the next
// synchronization point. Values stay exact: the only copies that can
// hold words another processor wrote in the same epoch are the claimant
// itself and readers that filled from a remote exclusive owner, and
// replay refreshes both from barrier-final memory.
//
// Critical-section stores are the one mid-epoch communication channel
// (same-epoch bypass readers must observe them). Epochs containing them
// always execute sequentially in every mode, so the crit store applies
// eagerly: memory via Lane.WriteThrough and an immediate sweep that
// invalidates every cached copy of the line, including the writer's own.
//
// # Storage
//
// The directory is one row of ⌈P/64⌉-word sharer sets per line in a
// memsys.LineTable, allocated per touched chunk of 64 lines, so its
// storage grows with the lines a run touches, not with memory × P.
// Replay claims sweep the sharer sets rather than all P caches, and
// CheckInvariants costs O(cached lines + touched lines × ⌈P/64⌉).
package directory

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
	"repro/internal/stats"
)

// dirState is the memory-side state of one line.
type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirExclusive
)

// actKind is a deferred directory mutation's type.
type actKind uint8

const (
	// actFill registers a read fill of a line the frozen directory held
	// uncached or shared.
	actFill actKind = iota
	// actFillFromOwner registers a read fill that found the frozen
	// directory exclusive at a remote owner: replay downgrades the owner
	// and refreshes the filler from barrier-final memory.
	actFillFromOwner
	// actClaim registers an ownership claim (shared-hit upgrade or
	// write-miss fill-exclusive): replay sweeps all other copies.
	actClaim
	// actEvict clears the evicting processor's presence bit.
	actEvict
)

// action is one deferred directory mutation.
type action struct {
	kind actKind
	tag  int64
	addr prog.Word // the referenced word (claims classify victims by it)
}

// System is the full-map directory memory system.
type System struct {
	*memsys.Core
	dir *memsys.LineTable // one line row per memory line; frozen mid-epoch
	// touched lists the lines whose pend set the replay prepass filled
	// this epoch (see buildPend).
	touched []int64
	logs    [][]action // per-processor deferred mutations
}

// logsPool recycles the per-processor action-log slices across runs so
// their grown capacity is reused instead of reallocated (systems are
// built per simulated run; see memsys.Releaser).
var logsPool = memsys.NewTablePool(func(log []action) int64 {
	return int64(cap(log)) * int64(unsafe.Sizeof(action{}))
})

// New builds an HW directory system.
func New(cfg machine.Config, memWords int64) *System {
	s := &System{
		Core: memsys.NewCore(cfg, memWords),
	}
	s.EnableAlwaysBuffered()
	s.dir = s.EnableHome(lineWords(cfg.Procs))
	s.EnableCaches(false) // write-back caches: no write buffers
	s.logs = logsPool.Get(cfg.Procs)
	for p := range s.logs {
		s.logs[p] = s.logs[p][:0]
	}
	s.OnRelease(s)
	return s
}

// Name implements memsys.System.
func (s *System) Name() string { return "HW" }

// FlushEpoch implements memsys.System: the lanes drain first so the
// replay (which refreshes surviving claimant/filler copies and charges
// dirty write-backs) reads barrier-final memory.
func (s *System) FlushEpoch() {
	s.FlushEpochLanes()
	s.replayEpoch()
}

// ReleaseOwn implements memsys.OwnReleaser: the action logs go back to
// their pool. The field is nilled so any use after release fails loudly.
func (s *System) ReleaseOwn() {
	for p := range s.logs {
		s.logs[p] = s.logs[p][:0]
	}
	logsPool.Put(s.logs)
	s.logs = nil
}

// Read implements memsys.System. The compiler marking is ignored: the
// hardware enforces coherence by itself.
func (s *System) Read(p int, addr prog.Word, kind memsys.ReadKind, window int) (float64, int64) {
	ln := s.LaneFor(p)
	ln.St.Reads++
	cc, tr := s.ProcState(p)

	if f, w, ok := cc.Lookup(addr); ok {
		ln.St.ReadHits++
		cc.MarkUsed(f, w)
		cc.Touch(f)
		v := cc.Val(f, w)
		ln.CheckFresh(addr, v, p, "hw read hit")
		return v, s.Cfg.HitCycles
	}

	ln.St.ReadMisses[s.ClassifyMissLane(ln, tr, addr)]++
	tag, _ := cc.Split(addr)
	e := line(s.dir.Row(tag)) // frozen: read-only until the barrier replay

	var extra int64
	act := actFill
	if e.state() == dirExclusive && e.owner() != p {
		// Remote possibly-dirty copy: the request is forwarded from the
		// home node to the owner, and the data comes back from the owner.
		// The downgrade itself replays at the barrier.
		owner := e.owner()
		home := s.HomeOf(addr)
		extra = s.Lat.Word(home, owner) + s.Lat.Line(owner, p)
		ln.St.CoherenceTrafficWords += int64(s.Cfg.LineWords) + 2
		ln.St.CoherenceMsgs++
		ln.Inject(int64(s.Cfg.LineWords) + 2)
		act = actFillFromOwner
	}

	nf, nw := s.fillLocal(p, ln, addr, false)
	s.logs[p] = append(s.logs[p], action{kind: act, tag: tag, addr: addr})
	ln.St.MissLatencySum += extra
	return cc.Val(nf, nw), s.ChargeLineMiss(ln, p, addr) + extra
}

// Write implements memsys.System: invalidation-based MSI with the
// directory transfer deferred to the barrier. The processor does not
// stall (weak consistency); all costs are traffic-side.
func (s *System) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	ln := s.LaneFor(p)
	cc, tr := s.ProcState(p)
	tag, _ := cc.Split(addr)
	if crit {
		return s.writeCritical(p, ln, tag, addr, val)
	}
	ln.St.Writes++

	if f, w, ok := cc.Lookup(addr); ok {
		ln.St.WriteHits++
		ln.Write(addr, val, p, s.Epoch)
		exclusive := cc.State(f) == cache.Exclusive
		// A shared hit upgrades the local copy eagerly (later same-epoch
		// stores hit exclusive); the sharer sweep replays at the barrier.
		cc.SetState(f, cache.Exclusive)
		cc.SetVal(f, w, val)
		cc.SetDirty(f, true)
		cc.MarkUsed(f, w)
		cc.Touch(f)
		if exclusive {
			return 0
		}
		s.logs[p] = append(s.logs[p], action{kind: actClaim, tag: tag, addr: addr})
		ln.St.CoherenceMsgs++ // upgrade request
		ln.St.CoherenceTrafficWords++
		ln.Inject(1)
		if s.Cfg.SeqConsistency {
			// the upgrade must be acknowledged before the write retires
			return s.Lat.WordRoundTrip(p, s.HomeOf(addr))
		}
		return 0
	}

	// Write miss: fetch the line with ownership. Classify from p's tracker
	// history before the fill below records the new residency (sharer
	// invalidations only touch other processors' trackers).
	ln.St.WriteMisses[s.ClassifyMissLane(ln, tr, addr)]++
	if e := line(s.dir.Row(tag)); e.state() == dirExclusive && e.owner() != p {
		// The frozen directory shows a remote owner: charge the ownership
		// transfer; the owner's invalidation replays at the barrier.
		ln.St.CoherenceTrafficWords += int64(s.Cfg.LineWords) + 2
		ln.St.CoherenceMsgs++
		ln.Inject(int64(s.Cfg.LineWords) + 2)
	}
	ln.Write(addr, val, p, s.Epoch)
	nf, nw := s.fillLocal(p, ln, addr, true)
	cc.SetVal(nf, nw, val)
	cc.SetDirty(nf, true)
	s.logs[p] = append(s.logs[p], action{kind: actClaim, tag: tag, addr: addr})
	ln.St.ReadTrafficWords += int64(s.Cfg.LineWords) // ownership fetch
	ln.Inject(int64(s.Cfg.LineWords) + 1)
	if s.Cfg.SeqConsistency {
		// the ownership fetch must complete before the write retires
		lat := s.LineMissLatencyFor(p, addr)
		ln.St.WriteMissLatencySum += lat
		return lat
	}
	return 0
}

// writeCritical applies a critical-section store eagerly: epochs holding
// critical/ordered sections run sequentially in every execution mode, so
// the store writes through to memory (withdrawing any buffered same-epoch
// entry) and every cached copy of the line — the writer's own included —
// is invalidated on the spot. Same-epoch bypass readers then miss and
// fetch the fresh value from memory.
func (s *System) writeCritical(p int, ln *memsys.Lane, tag int64, addr prog.Word, val float64) int64 {
	ln.St.Writes++
	ln.St.WriteMisses[stats.MissBypass]++
	ln.WriteThrough(addr, val, p, s.Epoch)

	lw := s.Cfg.LineWords
	base := prog.Word(tag * int64(lw))
	woff := int(int64(addr) % int64(lw))
	for q := 0; q < s.Cfg.Procs; q++ {
		cc, tr := s.CacheOf(q)
		if cc == nil { // never referenced anything: no copy to invalidate
			continue
		}
		f, w, ok := cc.Lookup(base + prog.Word(woff))
		if !ok || cc.Tag(f) != tag {
			continue
		}
		if q != p {
			reason := cache.LostInvalFalse
			if cc.Used(f, w) {
				reason = cache.LostInvalTrue
			}
			if s.Probe != nil {
				class := stats.MissFalseSharing
				if reason == cache.LostInvalTrue {
					class = stats.MissTrueSharing
				}
				s.Probe.Invalidation(p, q, addr, class)
			}
			tr.NoteLineLost(cc, f, reason)
		} else {
			tr.NoteLineLost(cc, f, cache.LostInvalTrue)
		}
		if cc.Dirty(f) {
			ln.St.WriteTrafficWords += int64(lw)
			ln.Inject(int64(lw))
		}
		cc.InvalidateLine(f)
		ln.St.Invalidations++
		ln.St.CoherenceMsgs++
		ln.St.CoherenceTrafficWords += 2
		ln.Inject(2)
	}
	e := line(s.dir.Mut(tag))
	e.set(dirUncached, 0)
	e.pres().Reset()
	ln.St.WriteTrafficWords++
	ln.Inject(1)
	return 0
}

// fillLocal installs the line containing addr in p's cache, evicting with
// local bookkeeping only (the directory learns at the barrier replay).
func (s *System) fillLocal(p int, ln *memsys.Lane, addr prog.Word, exclusive bool) (cache.Frame, int) {
	cc, tr := s.CacheOf(p)
	v := cc.Victim(addr)
	if cc.State(v) != cache.Invalid {
		if cc.Dirty(v) {
			ln.St.WriteTrafficWords += int64(s.Cfg.LineWords)
			ln.Inject(int64(s.Cfg.LineWords))
		}
		s.logs[p] = append(s.logs[p], action{kind: actEvict, tag: cc.Tag(v)})
		tr.NoteLineLost(cc, v, cache.LostReplaced)
		cc.InvalidateLine(v)
	}
	nf, nw := s.FillLane(ln, cc, tr, addr, s.Epoch, s.Epoch)
	if exclusive {
		cc.SetState(nf, cache.Exclusive)
	}
	return nf, nw
}

// replayEpoch applies the deferred directory mutations in (processor,
// sequence) order. It runs single-threaded at the barrier, after the
// lanes drained, so stats and traffic go straight to the shared sinks
// and value refreshes read barrier-final memory.
func (s *System) replayEpoch() {
	s.buildPend()
	for p := range s.logs {
		log := s.logs[p]
		for i := range log {
			a := &log[i]
			e := line(s.dir.Mut(a.tag))
			switch a.kind {
			case actFill, actFillFromOwner:
				s.replayFill(p, e, a, a.kind == actFillFromOwner)
			case actClaim:
				s.replayClaim(p, e, a)
			case actEvict:
				s.clearPresence(e, p)
			}
		}
		s.logs[p] = log[:0]
	}
	s.clearPend()
}

// buildPend marks, for every line a fill or claim touched this epoch,
// the processors that logged one. A processor can hold a copy of a line
// at the barrier only if its presence bit was set when the directory
// froze or it filled the line this epoch — and every fill is logged —
// so replayClaim's sweep visits presence ∪ pend instead of all P
// processors. Visiting a candidate without a copy is harmless (the sweep
// re-checks the cache), so the prepass may safely over-approximate
// across the whole epoch's logs.
func (s *System) buildPend() {
	for p := range s.logs {
		log := s.logs[p]
		for i := range log {
			a := &log[i]
			if a.kind == actEvict {
				continue
			}
			pend := line(s.dir.Mut(a.tag)).pend()
			if pend.Empty() {
				s.touched = append(s.touched, a.tag)
			}
			pend.Add(p)
		}
	}
}

// clearPend resets the candidate sets the prepass filled, touching only
// the lines this epoch used.
func (s *System) clearPend() {
	for _, tag := range s.touched {
		line(s.dir.Mut(tag)).pend().Reset()
	}
	s.touched = s.touched[:0]
}

// replayFill registers a read fill: the frozen-exclusive owner (if the
// fill was forwarded) downgrades to shared, and the filler's presence bit
// is set only if its copy still exists at the barrier — a copy filled and
// evicted within the epoch leaves no trace.
func (s *System) replayFill(p int, e line, a *action, fromOwner bool) {
	if fromOwner && e.state() == dirExclusive {
		s.downgradeOwner(e.owner(), a.tag)
		e.set(dirShared, 0)
	}
	cc, _ := s.CacheOf(p)
	base := prog.Word(a.tag * int64(cc.LineWords()))
	f, _, ok := cc.Lookup(base)
	if !ok || cc.Tag(f) != a.tag {
		s.clearPresence(e, p)
		return
	}
	if fromOwner {
		// The mid-epoch fill read through the lane, which cannot see the
		// owner's buffered same-epoch stores; memory is final now.
		s.refreshFromMemory(cc, f)
	}
	s.reservePointer(e, p, a.tag, a.addr)
	e.pres().Add(p)
	if e.state() == dirUncached {
		e.set(dirShared, e.owner())
	}
}

// replayClaim performs the deferred ownership transfer: sweep every other
// processor that can hold a copy of the line for surviving copies
// (presence bits may lag same-epoch fills, so the caches are
// authoritative), then register the claimant against its own
// barrier-time cache state.
func (s *System) replayClaim(p int, e line, a *action) {
	lw := s.Cfg.LineWords
	base := prog.Word(a.tag * int64(lw))
	woff := int(int64(a.addr) % int64(lw))
	// Only presence members and this epoch's fill/claim candidates (see
	// buildPend) can hold a copy; sweep the union in ascending processor
	// order.
	pres, pend := e.pres(), e.pend()
	for i := range pres {
		w := pres[i] | pend[i]
		if i == p>>6 {
			w &^= 1 << uint(p&63)
		}
		for w != 0 {
			q := i<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			s.claimVictim(p, q, e, a, base, lw, woff)
		}
	}
	// After the sweep only the claimant can hold a copy. Register by what
	// its cache holds NOW: the claimed line may itself have been evicted
	// (and possibly re-filled shared by a later read) within the epoch.
	cc, _ := s.CacheOf(p)
	f, _, ok := cc.Lookup(base)
	switch {
	case ok && cc.Tag(f) == a.tag && cc.State(f) == cache.Exclusive:
		s.refreshFromMemory(cc, f)
		e.set(dirExclusive, p)
		e.pres().Reset()
		e.pres().Add(p)
	case ok && cc.Tag(f) == a.tag:
		s.refreshFromMemory(cc, f)
		e.set(dirShared, 0)
		e.pres().Reset()
		e.pres().Add(p)
	default:
		e.set(dirUncached, 0)
		e.pres().Reset()
	}
}

// claimVictim processes one processor q under p's deferred claim: if q
// still holds a copy of the line, it is classified (true/false sharing
// by the written word's used bit), invalidated, and charged; either way
// q's presence bit ends clear.
func (s *System) claimVictim(p, q int, e line, a *action, base prog.Word, lw, woff int) {
	cc, tr := s.CacheOf(q)
	if cc == nil { // never referenced anything: no copy, no bit
		return
	}
	f, w, ok := cc.Lookup(base + prog.Word(woff))
	if !ok || cc.Tag(f) != a.tag {
		e.pres().Remove(q)
		return
	}
	reason := cache.LostInvalFalse
	if cc.Used(f, w) {
		reason = cache.LostInvalTrue
	}
	if s.Probe != nil {
		class := stats.MissFalseSharing
		if reason == cache.LostInvalTrue {
			class = stats.MissTrueSharing
		}
		s.Probe.Invalidation(p, q, a.addr, class)
	}
	tr.NoteLineLost(cc, f, reason)
	if cc.Dirty(f) {
		s.St.WriteTrafficWords += int64(lw)
		s.Netw.Inject(int64(lw))
	}
	cc.InvalidateLine(f)
	e.pres().Remove(q)
	s.St.Invalidations++
	s.St.CoherenceMsgs++
	s.St.CoherenceTrafficWords += 2 // invalidate + ack
	s.Netw.Inject(2)
}

// clearPresence drops p's presence bit and normalizes an emptied line.
func (s *System) clearPresence(e line, p int) {
	e.pres().Remove(p)
	if e.pres().Empty() {
		e.set(dirUncached, 0)
	}
}

// refreshFromMemory overwrites a line's valid words with barrier-final
// memory: the copies replay leaves alive (claimants, forwarded fillers)
// may hold words other processors wrote this epoch through their lanes.
func (s *System) refreshFromMemory(cc *cache.Cache, f cache.Frame) {
	base := prog.Word(cc.Tag(f) * int64(cc.LineWords()))
	for i := 0; i < cc.LineWords(); i++ {
		if cc.TT(f, i) != cache.TTInvalid {
			cc.SetVal(f, i, s.Memory.Read(base+prog.Word(i)))
		}
	}
}

// reservePointer enforces the limited-pointer directory variant
// (DIR_NB(i)): when adding sharer p would exceed the pointer budget, an
// existing sharer is invalidated to free a pointer. Such invalidations
// are a directory-capacity artifact and are recorded as replacements at
// the victim. Runs at barrier replay (registration time), so its charges
// go to the shared sinks.
func (s *System) reservePointer(e line, p int, tag int64, addr prog.Word) {
	limit := s.Cfg.DirPointers
	if limit <= 0 || e.pres().Has(p) {
		return
	}
	for e.pres().Count() >= limit {
		victim := e.pres().FirstOther(p)
		if victim < 0 {
			return
		}
		cc, tr := s.CacheOf(victim)
		if cc != nil {
			base := prog.Word(tag * int64(cc.LineWords()))
			if f, _, ok := cc.Lookup(base); ok && cc.Tag(f) == tag {
				tr.NoteLineLost(cc, f, cache.LostReplaced)
				if cc.Dirty(f) {
					s.St.WriteTrafficWords += int64(s.Cfg.LineWords)
					s.Netw.Inject(int64(s.Cfg.LineWords))
				}
				cc.InvalidateLine(f)
			}
		}
		if s.Probe != nil {
			s.Probe.Invalidation(p, victim, addr, stats.MissReplace)
		}
		e.pres().Remove(victim)
		s.St.PointerEvictions++
		s.St.Invalidations++
		s.St.CoherenceMsgs++
		s.St.CoherenceTrafficWords += 2
		s.Netw.Inject(2)
	}
}

// downgradeOwner makes the exclusive owner's copy clean/shared
// (write-back of dirty data is charged by the caller).
func (s *System) downgradeOwner(owner int, tag int64) {
	cc, _ := s.CacheOf(owner)
	if cc == nil { // an owner without a cache cannot exist; be defensive
		return
	}
	base := prog.Word(tag * int64(cc.LineWords()))
	if f, _, ok := cc.Lookup(base); ok && cc.Tag(f) == tag {
		cc.SetState(f, cache.Shared)
		cc.SetDirty(f, false)
	}
}

// EpochBoundary implements memsys.System: write-back caches keep their
// contents across epochs (the directory scheme's key advantage).
func (s *System) EpochBoundary(epoch int64) int64 {
	s.Epoch = epoch
	s.SetLaneEpoch(epoch)
	return 0
}

// InitReadCursor implements memsys.System: an HW read hit is any valid
// word (MSI keeps whole lines valid), so the cut is the minimum timetag;
// the compiler marking is ignored as in the scalar path.
func (s *System) InitReadCursor(c *memsys.ReadCursor, p int, kind memsys.ReadKind, window int, addr0 prog.Word) {
	s.InitCachedReadCursor(c, s, p, kind, window, math.MinInt64, false, "hw read hit")
}

// InitWriteCursor implements memsys.System: the exclusive-hit store is
// inlined (silent under the frozen directory); shared hits and misses
// take the scalar path, which logs the deferred claim.
func (s *System) InitWriteCursor(c *memsys.WriteCursor, p int, addr0 prog.Word) {
	cc, _ := s.ProcState(p)
	*c = memsys.WriteCursor{
		Mode: memsys.StreamHW, Sys: s, Core: s.Core, Ln: s.LaneFor(p),
		CC: cc, Proc: p, Epoch: s.Epoch,
	}
}

// CheckInvariants verifies the protocol's global invariants: at most one
// exclusive owner per line, presence bits consistent with cache contents,
// and no dirty copy without exclusive state. Valid only at epoch
// barriers (after FlushEpoch); every run calls it after its final one.
// It costs O(cached lines + touched lines × ⌈P/64⌉) and allocates
// nothing per memory line.
func (s *System) CheckInvariants() error {
	// Pass 1 walks every cache: each copy has its presence bit, so the
	// holders of a line are a subset of its presence set.
	for p := 0; p < s.Cfg.Procs; p++ {
		cc, _ := s.CacheOf(p)
		if cc == nil {
			continue
		}
		var err error
		cc.ForEachValidLine(func(f cache.Frame) {
			if err != nil {
				return
			}
			tag := cc.Tag(f)
			if !line(s.dir.Row(tag)).pres().Has(p) {
				err = fmt.Errorf("directory: line %d: P%d holds a copy without a presence bit", tag, p)
				return
			}
			if cc.Dirty(f) && cc.State(f) != cache.Exclusive {
				err = fmt.Errorf("directory: line %d: dirty non-exclusive copy at P%d", tag, p)
			}
		})
		if err != nil {
			return err
		}
	}
	// Pass 2 walks the touched lines (the rest are uncached with no
	// sharers) and looks each presence member up in its cache.
	return s.dir.Each(func(tag int64, row []uint64) error {
		e := line(row)
		holders, excl, stale := s.holders(e, tag)
		if stale >= 0 {
			return fmt.Errorf("directory: line %d: presence bit set for P%d without a copy", tag, stale)
		}
		if excl >= 0 && holders > 1 {
			return fmt.Errorf("directory: line %d: exclusive copy at P%d alongside %d holders",
				tag, excl, holders)
		}
		if e.state() == dirExclusive && excl != e.owner() {
			return fmt.Errorf("directory: line %d: owner %d has no exclusive copy", tag, e.owner())
		}
		return nil
	})
}

// holders looks up line tag in the cache of every member of its
// presence set. It returns how many hold a copy, the highest that holds
// it exclusive (-1 if none), and the lowest that holds no copy (-1 if
// none).
func (s *System) holders(e line, tag int64) (n, excl, stale int) {
	excl, stale = -1, -1
	e.pres().ForEach(func(q int) {
		cc, _ := s.CacheOf(q)
		if cc != nil {
			base := prog.Word(tag * int64(cc.LineWords()))
			if f, _, ok := cc.Lookup(base); ok && cc.Tag(f) == tag {
				n++
				if cc.State(f) == cache.Exclusive {
					excl = q
				}
				return
			}
		}
		if stale < 0 {
			stale = q
		}
	})
	return n, excl, stale
}
