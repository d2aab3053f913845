// Package tardis implements timestamp-based coherence after Tardis (Yu &
// Devadas, PACT 2015) and Tardis 2.0 (Yu, Liu & Devadas, 2016) — the
// sixth scheme family next to BASE/SC/TPI/HW/VC. Where the paper's HSCD
// schemes bound staleness with compiler epoch distances and the HW
// directory tracks sharers to invalidate them, Tardis orders memory
// operations in *logical time* and never sends invalidations at all:
//
//	state    per line at home: write timestamp wts, read lease bound rts
//	         per processor: logical clock pts (here: gts + a local bump)
//	read:    lease the word until rts' = max(rts, pts + lease); a cached
//	         copy is readable while its lease has not expired
//	write:   jump past every outstanding lease: wts' = rts + 1 — old
//	         copies simply expire instead of being invalidated
//	renewal: an expired copy whose data is unchanged re-leases with a
//	         timestamp-only message (no data transfer)
//
// The Tardis 2.0 optimizations are config knobs: lease prediction grows
// a line's lease on renewal streaks (LeasePredict), unshared read misses
// take the line exclusive so later stores are silent (TardisExclusive),
// and contended lines back their leases off (RenewBackoff). TARDIS maps
// to the base protocol, TARDIS2 to all three knobs on.
//
// # Mapping onto the epoch-barrier execution model
//
// The simulator's programs are barrier-synchronized DOALL epochs, so the
// protocol is run at epoch grain: one global logical clock gts stands in
// for the per-processor pts between barriers (a processor's pts only
// exceeds gts transiently after its own writes, which is tracked in
// ptsLocal and folded back by the barrier's gts advance). All home
// timestamp state is FROZEN mid-epoch: reads and writes compute their
// grants from the frozen (wts, rts, hist, owner) image and append the
// resulting home mutations to a per-processor action log, replayed in
// (processor, sequence) order inside FlushEpoch after the lane merge —
// the same deferred-replay discipline as the HW directory, which makes
// sequential, host-parallel, and fast-path execution bit-identical by
// construction.
//
// Correctness does not depend on replay order: every lease granted in an
// epoch is registered in rts at that epoch's barrier, every grant
// computes the same end E = max(rts, gts+lease) from the same frozen
// image, and a write's timestamp is exactly E+1 — strictly past every
// same-epoch grant and, via wts' = max(rts+1, E+1) at replay, past every
// earlier lease too. The barrier then advances gts to the maximum
// replayed wts, so a copy whose word was overwritten always fails the
// uniform hit predicate TT[w] >= gts in the next epoch. The staleness
// oracle (lane.CheckFresh) and the property tests in this package check
// exactly this: no read ever returns a value other than the one
// sequential execution would.
package tardis

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
	"repro/internal/stats"
)

// minHist is the lease-history floor: RenewBackoff halves the base lease
// at most this many times (lease >> 4, floored at 1 epoch).
const minHist = -4

// maxPredict caps LeasePredict doubling (lease << 6) independently of
// LeaseMax, so one hot line cannot run its lease away from the clock.
const maxPredict = 6

// actKind is a deferred home-state mutation (see the package comment).
type actKind uint8

const (
	// actGrant registers a read lease: rts = max(rts, end). A grant by a
	// non-owner also revokes the line's exclusive owner (recall).
	actGrant actKind = iota
	// actOwnGrant is actGrant plus an exclusive-ownership claim, taken on
	// a read miss to a line with no outstanding leases (Tardis 2.0 MESI
	// grant). The claim is rechecked against live replay state: if a
	// same-epoch foreign grant got there first, the claim is dropped.
	actOwnGrant
	// actRenewFresh is actGrant for a renewal that found the data
	// unchanged; it feeds the lease predictor's success streak.
	actRenewFresh
	// actRenewStale is actGrant for a renewal that found the data
	// changed; it feeds the renewal backoff.
	actRenewStale
	// actWrite advances the write timestamp past every outstanding
	// lease: wts = max(rts+1, end), rts = wts. end is the writer's
	// precomputed grant (frozen rts, frozen lease) + 1.
	actWrite
)

// act is one logged home mutation.
type act struct {
	kind actKind
	// more folds consecutive identical actWrite entries into this one: it
	// stands for 1+more writes, which replay as max(rts+1, end)+more —
	// exactly what 1+more separate entries give. It fits in the padding
	// after kind.
	more uint32
	line int64 // global line number (== cache tag)
	end  int64 // grant end / write timestamp
}

// actsPool recycles the per-processor action logs across runs; ReleaseOwn
// hands them back, just before Core.ReleaseCaches returns the caches and
// lanes.
var actsPool = memsys.NewTablePool(func(log []act) int64 {
	return int64(cap(log)) * int64(unsafe.Sizeof(act{}))
})

// The home state of a line is one row of the Core's home table
// (memsys.LineTable), frozen mid-epoch: word rowMeta holds the exclusive
// owner + 1 in its low 32 bits (0: no owner; the StreamTardis write
// cursor reads it there) and the lease history hist above them; words
// rowWts and rowRts hold the write timestamp and the read lease bound.
// The all-zero row is an untouched line: wts = rts = 0, hist 0, no
// owner.
const (
	rowMeta = iota
	rowWts
	rowRts
	rowWords
)

// homeLine is one line's decoded home state.
type homeLine struct {
	wts, rts int64
	hist     int8
	owner    int // -1: none
}

func decode(row []uint64) homeLine {
	return homeLine{
		wts:   int64(row[rowWts]),
		rts:   int64(row[rowRts]),
		hist:  int8(row[rowMeta] >> 32),
		owner: int(uint32(row[rowMeta])) - 1,
	}
}

func (h homeLine) encode(row []uint64) {
	row[rowWts], row[rowRts] = uint64(h.wts), uint64(h.rts)
	row[rowMeta] = uint64(uint8(h.hist))<<32 | uint64(uint32(h.owner+1))
}

// System is the Tardis timestamp-coherence memory system.
type System struct {
	*memsys.Core

	home *memsys.LineTable // per-line home state, frozen mid-epoch
	gts  int64             // global logical clock; advances only at FlushEpoch

	// ptsLocal[p] is the transient excess of processor p's logical clock
	// over gts (the timestamp of its latest write grant); the effective
	// pts(p) is max(gts, ptsLocal[p]). Written only by p mid-epoch.
	ptsLocal []int64

	// acts[p] is processor p's home action log for the current epoch,
	// appended mid-epoch by p alone and replayed in (processor, sequence)
	// order at the barrier.
	acts [][]act

	lease    int64 // base lease in epochs (cfg.LeaseEpochs, defaulted)
	leaseMax int64 // hard lease cap (cfg.LeaseMax, defaulted)
	predict  bool  // Tardis 2.0 lease prediction
	excl     bool  // Tardis 2.0 exclusive grant + silent stores
	backoff  bool  // Tardis 2.0 renewal backoff
	maxHist  int8  // largest hist with lease<<hist <= leaseMax
}

// New builds a Tardis system. memWords is the program's data extent;
// cfg must pass Validate, as core.NewSystem checks.
func New(cfg machine.Config, memWords int64) *System {
	s := &System{Core: memsys.NewCore(cfg, memWords)}
	s.home = s.EnableHome(rowWords)
	s.lease, s.leaseMax = cfg.EffectiveLeases()
	s.predict = cfg.LeasePredict
	s.excl = cfg.TardisExclusive
	s.backoff = cfg.RenewBackoff
	for s.maxHist < maxPredict && s.lease<<uint(s.maxHist+1) <= s.leaseMax {
		s.maxHist++
	}
	s.ptsLocal = make([]int64, cfg.Procs)
	s.acts = actsPool.Get(cfg.Procs)
	for p := range s.acts {
		s.acts[p] = s.acts[p][:0]
	}
	s.EnableCaches(true)
	s.EnableAlwaysBuffered()
	s.OnRelease(s)
	return s
}

// Name implements memsys.System.
func (s *System) Name() string { return s.Cfg.Scheme.String() }

// ReleaseOwn implements memsys.OwnReleaser: the action logs go back to
// their pool.
func (s *System) ReleaseOwn() {
	actsPool.Put(s.acts)
	s.acts = nil
}

// leaseFor is the lease the predictor currently assigns a line: the base
// lease doubled per renewal-success step (LeasePredict) or halved per
// backoff step (RenewBackoff), clamped to [1, leaseMax].
func (s *System) leaseFor(hist int8) int64 {
	l := s.lease
	switch {
	case hist > 0:
		l <<= uint(hist)
		if l > s.leaseMax {
			l = s.leaseMax
		}
	case hist < 0:
		l >>= uint(-hist)
		if l < 1 {
			l = 1
		}
	}
	return l
}

// grantEnd computes a read-lease end from the frozen home image of line
// l: E = max(rts, gts + lease). Every same-epoch grant to l computes the
// same E (same frozen inputs), which is what makes the writer's E+1
// strictly dominate them all.
func (s *System) grantEnd(l int64) int64 {
	h := decode(s.home.Row(l))
	end := s.gts + s.leaseFor(h.hist)
	if h.rts > end {
		end = h.rts
	}
	return end
}

// writeEnd is the write timestamp a store to line l claims: one past the
// epoch's uniform grant end.
func (s *System) writeEnd(l int64) int64 { return s.grantEnd(l) + 1 }

// ownerHeld reports whether line l is exclusively owned by a processor
// other than p in the frozen home table. Such a line may be receiving
// unlogged silent stores this very epoch, so any fill or renewal by p
// must validate only the word p is accessing (see recall handling).
func (s *System) ownerHeld(l int64, p int) bool {
	o := decode(s.home.Row(l)).owner
	return o >= 0 && o != p
}

// notePts records that p's logical clock reached t (its write grant).
func (s *System) notePts(p int, t int64) {
	if t > s.ptsLocal[p] {
		s.ptsLocal[p] = t
	}
}

// log appends a home mutation to p's action log. A write that repeats
// the previous entry — same line, same write timestamp, as every store
// to one line in one epoch has — folds into it.
func (s *System) log(p int, kind actKind, line, end int64) {
	l := s.acts[p]
	if kind == actWrite && len(l) > 0 {
		if last := &l[len(l)-1]; last.kind == actWrite && last.line == line &&
			last.end == end && last.more < math.MaxUint32 {
			last.more++
			return
		}
	}
	s.acts[p] = append(l, act{kind: kind, line: line, end: end})
}

// Read implements memsys.System. The Time-Read window is ignored —
// Tardis needs no compiler windows; the lease check subsumes them.
func (s *System) Read(p int, addr prog.Word, kind memsys.ReadKind, window int) (float64, int64) {
	ln := s.LaneFor(p)
	ln.St.Reads++
	if kind == memsys.ReadBypass {
		return s.BypassRead(ln, p, addr)
	}
	cc, tr := s.ProcState(p)

	f, w, present := cc.Lookup(addr)
	if present && cc.TT(f, w) != cache.TTInvalid {
		if cc.TT(f, w) >= s.gts {
			// Unexpired lease: the uniform Tardis hit.
			ln.St.ReadHits++
			cc.MarkUsed(f, w)
			cc.Touch(f)
			v := cc.Val(f, w)
			ln.CheckFresh(addr, v, p, "tardis hit")
			return v, s.Cfg.HitCycles
		}
		lid := cc.Tag(f)
		end := s.grantEnd(lid)
		if s.ownerHeld(lid, p) {
			// Expired lease on a line another processor owns: recall.
			return s.recallRead(ln, cc, tr, f, w, addr, lid, end, p)
		}
		if s.lineChanged(ln, cc, f, addr) {
			// The data moved on: a necessary coherence re-fetch.
			ln.St.ReadMisses[stats.MissTrueSharing]++
			s.refreshLine(ln, f, w, addr, cc, tr, end)
			s.log(p, actRenewStale, lid, end)
			return cc.Val(f, w), s.ChargeLineMiss(ln, p, addr)
		}
		// Data unchanged: pure lease renewal — timestamps move, data
		// does not. This is the Tardis analog of the HSCD conservative
		// miss, in its own class.
		ln.St.ReadMisses[stats.MissLeaseExpired]++
		ln.St.LeaseRenewals++
		s.extendLine(ln, f, w, addr, cc, end, p)
		s.log(p, actRenewFresh, lid, end)
		return cc.Val(f, w), s.chargeRenewal(ln, p, addr)
	}

	ln.St.ReadMisses[s.ClassifyMissLane(ln, tr, addr)]++
	if present {
		// Word-grain hole in a present line.
		lid := cc.Tag(f)
		end := s.grantEnd(lid)
		if s.ownerHeld(lid, p) {
			return s.recallWord(ln, cc, tr, f, w, addr, lid, end, p)
		}
		s.refreshLine(ln, f, w, addr, cc, tr, end)
		s.log(p, actGrant, lid, end)
		return cc.Val(f, w), s.ChargeLineMiss(ln, p, addr)
	}
	nf, nw := s.fillLine(ln, cc, tr, p, addr)
	return cc.Val(nf, nw), s.ChargeLineMiss(ln, p, addr)
}

// lineChanged reports whether any valid word of the (expired) line
// differs from what this processor must currently see — the home's
// renewal check, decided against lane-visible values so sequential and
// host-parallel runs agree.
func (s *System) lineChanged(ln *memsys.Lane, cc *cache.Cache, f cache.Frame, addr prog.Word) bool {
	base := cc.LineBase(addr)
	for i := 0; i < cc.LineWords(); i++ {
		if cc.TT(f, i) != cache.TTInvalid && cc.Val(f, i) != ln.Value(base+prog.Word(i)) {
			return true
		}
	}
	return false
}

// extendLine renews the line's valid words in place: no data moves, the
// lease timetags advance to end (never backwards — a word written this
// epoch already carries the strictly larger write timestamp).
func (s *System) extendLine(ln *memsys.Lane, f cache.Frame, w int, addr prog.Word, cc *cache.Cache, end int64, p int) {
	for i := 0; i < cc.LineWords(); i++ {
		if tt := cc.TT(f, i); tt != cache.TTInvalid && tt < end {
			cc.SetTT(f, i, end)
		}
	}
	cc.MarkUsed(f, w)
	cc.Touch(f)
	ln.CheckFresh(addr, cc.Val(f, w), p, "tardis renewal")
}

// refreshLine re-fetches a present line through the lane; every word's
// lease becomes at least end.
func (s *System) refreshLine(ln *memsys.Lane, f cache.Frame, w int, addr prog.Word, cc *cache.Cache, tr *cache.Tracker, end int64) {
	base := cc.LineBase(addr)
	for i := 0; i < cc.LineWords(); i++ {
		a := base + prog.Word(i)
		cc.SetVal(f, i, ln.Value(a))
		if cc.TT(f, i) < end {
			cc.SetTT(f, i, end)
		}
		tr.NoteCached(a)
	}
	cc.SetState(f, cache.Shared)
	cc.SetDirty(f, false)
	cc.MarkUsed(f, w)
	cc.Touch(f)
}

// recallRead handles an expired word of a line exclusively owned by
// another processor: the home recalls the owner (revoking it at replay
// via the grant) and can vouch only for the requested word — the owner
// may be silently storing to the line's other words this very epoch, so
// their leases are curtailed rather than renewed (see staleMark).
func (s *System) recallRead(ln *memsys.Lane, cc *cache.Cache, tr *cache.Tracker, f cache.Frame, w int, addr prog.Word, lid, end int64, p int) (float64, int64) {
	changed := cc.Val(f, w) != ln.Value(addr)
	if changed {
		ln.St.ReadMisses[stats.MissTrueSharing]++
	} else {
		ln.St.ReadMisses[stats.MissLeaseExpired]++
		ln.St.LeaseRenewals++
	}
	s.recallWordState(ln, cc, tr, f, w, addr, end)
	if changed {
		s.log(p, actRenewStale, lid, end)
	} else {
		s.log(p, actRenewFresh, lid, end)
	}
	return cc.Val(f, w), s.chargeRecall(ln, p, addr)
}

// recallWord fills a word-grain hole of an owner-held present line —
// like recallRead but the requested word has no prior copy to compare.
func (s *System) recallWord(ln *memsys.Lane, cc *cache.Cache, tr *cache.Tracker, f cache.Frame, w int, addr prog.Word, lid, end int64, p int) (float64, int64) {
	s.recallWordState(ln, cc, tr, f, w, addr, end)
	s.log(p, actGrant, lid, end)
	return cc.Val(f, w), s.chargeRecall(ln, p, addr)
}

// recallWordState is the cache side of a recall: every other valid word
// expires (staleMark), word w is re-fetched through the lane with a
// lease of at least end, and the line drops to Shared.
func (s *System) recallWordState(ln *memsys.Lane, cc *cache.Cache, tr *cache.Tracker, f cache.Frame, w int, addr prog.Word, end int64) {
	s.staleMark(cc, f, w)
	cc.SetVal(f, w, ln.Value(addr))
	if cc.TT(f, w) < end {
		cc.SetTT(f, w, end)
	}
	cc.SetState(f, cache.Shared)
	cc.MarkUsed(f, w)
	cc.Touch(f)
	tr.NoteCached(addr)
}

// staleMark caps the lease of every valid word of the line except w at
// gts-1 — present but expired. An owner-held line's other words may be
// mid-silent-store, so their leases cannot be extended; an expired copy
// is harmless (the hit predicate rejects it) and the next access decides
// renewal vs re-fetch by comparing values, which by then include the
// owner's flushed stores.
func (s *System) staleMark(cc *cache.Cache, f cache.Frame, w int) {
	cut := s.gts - 1
	for i := 0; i < cc.LineWords(); i++ {
		if i != w && cc.TT(f, i) > cut {
			cc.SetTT(f, i, cut)
		}
	}
}

// fillLine installs the line with lease end per word; an unshared line
// (no outstanding leases, no foreign owner) is granted Exclusive under
// TardisExclusive. A dirty victim (silent stores) writes back first.
func (s *System) fillLine(ln *memsys.Lane, cc *cache.Cache, tr *cache.Tracker, p int, addr prog.Word) (cache.Frame, int) {
	if v := cc.Victim(addr); cc.State(v) != cache.Invalid && cc.Dirty(v) {
		s.chargeWriteback(ln, cc)
		cc.SetDirty(v, false)
	}
	lid := int64(addr) / int64(s.Cfg.LineWords)
	h := decode(s.home.Row(lid))
	end := s.grantEnd(lid)
	nf, nw := s.FillLane(ln, cc, tr, addr, end, end)
	if s.ownerHeld(lid, p) {
		// Owner-held line: recall it (one coherence message on top of
		// the fetch); only the accessed word's lease can be granted.
		s.staleMark(cc, nf, nw)
		ln.St.CoherenceMsgs++
		s.log(p, actGrant, lid, end)
		return nf, nw
	}
	if s.excl && h.rts <= h.wts && (h.owner < 0 || h.owner == p) {
		cc.SetState(nf, cache.Exclusive)
		ln.St.ExclusiveGrants++
		s.log(p, actOwnGrant, lid, end)
	} else {
		s.log(p, actGrant, lid, end)
	}
	return nf, nw
}

// chargeWriteback accounts a dirty (silently-stored) victim line's
// write-back to its home. Values are already authoritative in memory via
// the lanes; only traffic is charged.
func (s *System) chargeWriteback(ln *memsys.Lane, cc *cache.Cache) {
	ln.St.CoherenceTrafficWords += int64(cc.LineWords())
	ln.Inject(int64(cc.LineWords()) + 1)
}

// chargeRenewal is the data-free lease renewal: a timestamp round trip
// (coherence traffic, not data traffic) at single-word latency.
func (s *System) chargeRenewal(ln *memsys.Lane, p int, addr prog.Word) int64 {
	ln.St.CoherenceMsgs++
	ln.St.CoherenceTrafficWords += 2
	ln.Inject(2)
	lat := s.WordMissLatencyFor(p, addr)
	ln.St.MissLatencySum += lat
	return lat
}

// chargeRecall is the owner-recall word fetch: one data word plus the
// recall message, at single-word latency.
func (s *System) chargeRecall(ln *memsys.Lane, p int, addr prog.Word) int64 {
	ln.St.ReadTrafficWords++
	ln.St.CoherenceMsgs++
	ln.Inject(3)
	lat := s.WordMissLatencyFor(p, addr)
	ln.St.MissLatencySum += lat
	return lat
}

// Write implements memsys.System: write-through with write-validate,
// like the HSCD schemes, except that the written word's timetag is the
// write timestamp E+1 (past every outstanding lease) and — under
// TardisExclusive — a store to a line this processor still owns in the
// frozen home table is silent: no home message, no lease change, dirty
// data written back on eviction.
func (s *System) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	ln := s.LaneFor(p)
	lid := int64(addr) / int64(s.Cfg.LineWords)
	if crit {
		// Critical-section store: globally visible now, local copy
		// dropped, and — unlike VC, whose CVNs advance via epoch mod
		// sets — the home must still jump wts past outstanding leases,
		// or same-line copies elsewhere would outlive the store.
		ln.WriteThrough(addr, val, p, s.Epoch)
		s.StoreCritical(ln, p, addr)
		wend := s.writeEnd(lid)
		s.log(p, actWrite, lid, wend)
		s.notePts(p, wend)
		return 0
	}
	cc, _ := s.ProcState(p)
	f, w, ok := cc.Lookup(addr)
	switch {
	case ok && cc.State(f) == cache.Exclusive && decode(s.home.Row(cc.Tag(f))).owner == p:
		if cc.TT(f, w) != cache.TTInvalid {
			// Tardis 2.0 silent store: the frozen home table still
			// names this processor, so no lease can be granted to anyone
			// else this epoch and the store needs no home interaction at
			// all. Mirrored exactly by the StreamTardis write cursor.
			ln.St.Writes++
			ln.Write(addr, val, p, s.Epoch)
			ln.St.WriteHits++
			cc.SetVal(f, w, val)
			cc.MarkUsed(f, w)
			cc.SetDirty(f, true)
			cc.Touch(f)
			return 0
		}
	case ok && cc.State(f) == cache.Exclusive:
		// Stale exclusivity hint (the home revoked us): demote.
		cc.SetState(f, cache.Shared)
	case !ok:
		if v := cc.Victim(addr); cc.State(v) != cache.Invalid && cc.Dirty(v) {
			s.chargeWriteback(ln, cc) // silently-stored victim
		}
	}
	wend := s.writeEnd(lid)
	stall := s.StoreLane(ln, p, addr, val, wend, false, false)
	s.log(p, actWrite, lid, wend)
	s.notePts(p, wend)
	return stall
}

// EpochBoundary implements memsys.System. The simulator's FlushEpoch has
// already merged the previous epoch's lanes and replayed the action logs
// when this runs.
func (s *System) EpochBoundary(epoch int64) int64 {
	s.Epoch = epoch
	s.SetLaneEpoch(epoch)
	s.FlushWriteBuffers()
	return 0
}

// FlushEpoch implements memsys.System: lane merge first (memory then
// reads barrier-final values), then the deterministic home replay.
func (s *System) FlushEpoch() {
	s.FlushEpochLanes()
	s.replay()
}

// replay applies the epoch's home mutations in (processor, sequence)
// order and advances gts to the maximum replayed write timestamp — the
// logical barrier synchronization. Per-processor clock excesses are
// subsumed (every ptsLocal value was logged as a write), so no O(P)
// clock scan is needed.
func (s *System) replay() {
	maxW := s.gts
	for p := range s.acts {
		l := s.acts[p]
		if len(l) == 0 {
			continue
		}
		for _, a := range l {
			row := s.home.Mut(a.line)
			h := decode(row)
			foreign := h.owner >= 0 && h.owner != p
			switch a.kind {
			case actGrant, actRenewFresh, actRenewStale:
				if foreign {
					h.owner = -1 // recall: a foreign lease revokes exclusivity
				}
				if a.end > h.rts {
					h.rts = a.end
				}
				switch a.kind {
				case actRenewFresh:
					if s.predict && h.hist < s.maxHist {
						h.hist++
					} else if h.hist < 0 {
						h.hist++ // recover from backoff
					}
				case actRenewStale:
					if s.backoff {
						if h.hist > 0 {
							h.hist = 0
						}
						if h.hist > minHist {
							h.hist--
						}
					} else if h.hist != 0 {
						h.hist = 0
					}
				}
			case actOwnGrant:
				// Recheck the unshared condition against live replay
				// state: a same-epoch foreign grant kills the claim.
				claim := h.rts <= h.wts && !foreign
				if a.end > h.rts {
					h.rts = a.end
				}
				if claim {
					h.owner = p
				} else if foreign {
					h.owner = -1
				}
			case actWrite:
				w2 := h.rts + 1
				if a.end > w2 {
					w2 = a.end
				}
				w2 += int64(a.more)
				h.wts, h.rts = w2, w2
				if foreign {
					// A foreign write breaks exclusivity; ownership is
					// only ever claimed by the exclusive read grant.
					h.owner = -1
				}
				if h.hist > 0 {
					h.hist = 0 // a write ends a renewal-success streak
				}
				if w2 > maxW {
					maxW = w2
				}
			}
			h.encode(row)
		}
		s.acts[p] = l[:0]
	}
	s.gts = maxW
}

// InitReadCursor implements memsys.System: the hit predicate is the
// uniform lease check TT[w] >= gts, with gts frozen mid-epoch — a
// StreamCached cursor with Cut = gts. Time-Reads take the same path.
func (s *System) InitReadCursor(c *memsys.ReadCursor, p int, kind memsys.ReadKind, window int, addr0 prog.Word) {
	if kind == memsys.ReadBypass {
		s.InitUncachedReadCursor(c, s, p, kind, window)
		return
	}
	s.InitCachedReadCursor(c, s, p, kind, window, s.gts, false, "tardis hit")
}

// InitWriteCursor implements memsys.System. Write timestamps depend on
// per-line frozen home state, so there is no stream-constant WTT: under
// TardisExclusive the cursor inlines the silent store against the frozen
// home table and delegates the rest to the scalar Write; otherwise
// every store delegates.
func (s *System) InitWriteCursor(c *memsys.WriteCursor, p int, addr0 prog.Word) {
	cc, _ := s.ProcState(p)
	if s.excl {
		*c = memsys.WriteCursor{
			Mode: memsys.StreamTardis,
			Sys:  s, Core: s.Core, Ln: s.LaneFor(p),
			CC: cc, Proc: p, Epoch: s.Epoch,
			Home: s.home,
		}
		return
	}
	*c = memsys.WriteCursor{
		Mode: memsys.StreamUncached,
		Sys:  s, Core: s.Core, Ln: s.LaneFor(p),
		Proc: p, Epoch: s.Epoch,
	}
}

// GTS exposes the global logical clock (tests).
func (s *System) GTS() int64 { return s.gts }

// PTS exposes processor p's effective logical clock max(gts, local bump)
// (tests; the proof-paper invariant pts <= rts at every access).
func (s *System) PTS(p int) int64 {
	if s.ptsLocal[p] > s.gts {
		return s.ptsLocal[p]
	}
	return s.gts
}

// LineTimestamps exposes line l's home (wts, rts) image (tests).
func (s *System) LineTimestamps(l int64) (wts, rts int64) {
	h := decode(s.home.Row(l))
	return h.wts, h.rts
}

// OwnerOf exposes line l's exclusive owner, -1 if none (tests).
func (s *System) OwnerOf(l int64) int { return decode(s.home.Row(l)).owner }

// CheckInvariants verifies the proof-paper home invariants at a barrier:
// wts <= rts on every line, and no processor clock ahead of the merged
// global clock (every local bump was a logged write the barrier's gts
// advance subsumed). The simulator checks it after the final barrier;
// the property tests check it at every barrier.
func (s *System) CheckInvariants() error {
	// Untouched lines hold wts = rts = 0 <= gts.
	err := s.home.Each(func(l int64, row []uint64) error {
		h := decode(row)
		if h.wts > h.rts {
			return fmt.Errorf("tardis: line %d: wts %d > rts %d", l, h.wts, h.rts)
		}
		if h.wts > s.gts {
			return fmt.Errorf("tardis: line %d: wts %d ahead of gts %d", l, h.wts, s.gts)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for p, pl := range s.ptsLocal {
		if pl > s.gts {
			return fmt.Errorf("tardis: P%d: pts %d ahead of gts %d at barrier", p, pl, s.gts)
		}
	}
	return nil
}
