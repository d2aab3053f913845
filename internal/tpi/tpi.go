// Package tpi implements the paper's Two-Phase Invalidation (TPI)
// hardware: per-processor epoch counters, per-word timetags, the
// Time-Read hit rule, the line-fill timetag rule that protects against
// same-epoch false sharing, write-through caches with (optionally
// cache-organized) write buffers, and the two-phase timetag reset that
// recycles small timetags.
//
// Hit rules (E = current epoch counter, tt = word timetag, w = window):
//
//	regular load:  hit iff the word is valid.
//	Time-Read(w):  hit iff the word is valid AND tt >= E - min(w, maxW).
//	bypass load:   always fetches from memory (critical-section data).
//
// Update rules:
//
//	write:        tt := E (write-through; critical writes self-invalidate)
//	fill:         accessed word tt := E, neighbours tt := E-1
//	Time-Read hit: tt := E (validation refreshes the tag)
//	regular hit:   tt := E (the compiler proved freshness this epoch)
//
// The coherence decisions are processor-local (timetags against the
// global epoch counter, which only changes at barriers), so the
// reference paths shard per processor under host parallelism; the
// two-phase reset runs only at EpochBoundary, outside any parallel
// region.
package tpi

import (
	"math"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
	"repro/internal/stats"
)

// System is the TPI memory system.
type System struct {
	*memsys.Core
	caches   []*cache.Cache
	trackers []*cache.Tracker
	wbufs    []*cache.WriteBuffer
	phase    int64 // two-phase reset period: half the timetag range
}

// New builds a TPI system.
func New(cfg machine.Config, memWords int64) *System {
	s := &System{
		Core:  memsys.NewCore(cfg, memWords),
		phase: (int64(1) << uint(cfg.TimetagBits)) / 2,
	}
	if s.phase < 1 {
		s.phase = 1
	}
	s.caches = make([]*cache.Cache, cfg.Procs)
	s.trackers = make([]*cache.Tracker, cfg.Procs)
	s.wbufs = make([]*cache.WriteBuffer, cfg.Procs)
	s.OnRelease(s)
	return s
}

// Name implements memsys.System.
func (s *System) Name() string { return "TPI" }

// procState returns p's cache and tracker (building them, and the write
// buffer, on first use). Safe under host parallelism: each processor is
// owned by exactly one worker, so concurrent first-touches write
// distinct slice elements.
func (s *System) procState(p int) (*cache.Cache, *cache.Tracker) {
	if cc := s.caches[p]; cc != nil {
		return cc, s.trackers[p]
	}
	cc := cache.New(s.Cfg.CacheWords, s.Cfg.LineWords, s.Cfg.Assoc)
	s.caches[p] = cc
	s.trackers[p] = cache.NewTracker(s.Memory.Size())
	s.wbufs[p] = cache.NewWriteBuffer(s.Cfg.WriteBufferCache)
	return cc, s.trackers[p]
}

// ReleaseOwn implements memsys.OwnReleaser. The fields are nilled so any
// use after release fails loudly instead of corrupting a pooled cache.
func (s *System) ReleaseOwn() {
	for p, cc := range s.caches {
		if cc == nil {
			continue
		}
		cache.Release(cc)
		cache.ReleaseTracker(s.trackers[p])
		cache.ReleaseWriteBuffer(s.wbufs[p])
	}
	s.caches, s.trackers, s.wbufs = nil, nil, nil
}

// effWindow caps a compiler window at what the timetag width supports.
func (s *System) effWindow(w int) int64 {
	max := s.Cfg.MaxWindow()
	if int64(w) > max {
		return max
	}
	return int64(w)
}

// Read implements memsys.System.
func (s *System) Read(p int, addr prog.Word, kind memsys.ReadKind, window int) (float64, int64) {
	ln := s.LaneFor(p)
	ln.St.Reads++
	cc, tr := s.procState(p)

	if kind == memsys.ReadBypass {
		return s.bypassRead(ln, p, addr)
	}

	line, w, present := cc.Lookup(addr)
	if present && line.ValidWord(w) {
		ok := true
		if kind == memsys.ReadTime && line.TT[w] < s.Epoch-s.effWindow(window) {
			ok = false
		}
		if ok {
			ln.St.ReadHits++
			if !s.Cfg.LineTimetags {
				// Per-word tags may be promoted on a validated hit; a
				// line-granular tag may not (its other words could have
				// been written by other tasks since the fill).
				line.TT[w] = s.Epoch
			}
			line.Used[w] = true
			cc.Touch(line)
			ln.CheckFresh(addr, line.Vals[w], p, kind.HitContext())
			return line.Vals[w], s.Cfg.HitCycles
		}
		// Window failure on a present word: necessary (data really
		// changed) or conservative (compiler/window artifact)?
		if ln.LastWriteEpoch(addr) > line.TT[w] {
			ln.St.ReadMisses[stats.MissTrueSharing]++
		} else {
			ln.St.ReadMisses[stats.MissConservative]++
		}
		s.refreshLine(ln, line, w, addr, cc, tr)
		lat := s.chargeLineMiss(ln, p, addr)
		return line.Vals[w], lat
	}

	// Word absent (whole line, or a word-grain hole).
	ln.St.ReadMisses[s.ClassifyMissLane(ln, tr, addr)]++
	if present {
		s.refreshLine(ln, line, w, addr, cc, tr)
		lat := s.chargeLineMiss(ln, p, addr)
		return line.Vals[w], lat
	}
	if v := cc.Victim(addr); v.State != cache.Invalid {
		s.evictFor(ln, p, v) // accounts write-back of dirty words
	}
	accessedTT := s.Epoch
	if s.Cfg.LineTimetags {
		accessedTT = s.Epoch - 1 // the line tag claims only fill freshness
	}
	nl, nw := s.FillLane(ln, cc, tr, addr, accessedTT, s.Epoch-1)
	lat := s.chargeLineMiss(ln, p, addr)
	s.maybePrefetch(ln, p, addr)
	return nl.Vals[nw], lat
}

// maybePrefetch fetches the sequentially-next line after a demand miss
// (one-block lookahead). The prefetched words carry neighbour-rule
// timetags (E-1): they are data prefetches, not freshness claims.
func (s *System) maybePrefetch(ln *memsys.Lane, p int, addr prog.Word) {
	if !s.Cfg.Prefetch {
		return
	}
	cc, tr := s.caches[p], s.trackers[p]
	next := cc.LineBase(addr) + prog.Word(cc.LineWords())
	if int64(next) >= s.Memory.Size() {
		return
	}
	if _, _, ok := cc.Lookup(next); ok {
		return // already resident
	}
	if v := cc.Victim(next); v.State != cache.Invalid {
		s.evictFor(ln, p, v)
	}
	s.FillLane(ln, cc, tr, next, s.Epoch-1, s.Epoch-1)
	ln.St.ReadTrafficWords += int64(s.Cfg.LineWords)
	ln.St.PrefetchedLines++
	ln.Inject(int64(s.Cfg.LineWords) + 1)
	// No processor stall: the prefetch overlaps with computation.
}

// refreshLine refetches a present line's data from memory, promoting the
// accessed word to the current epoch and its neighbours to at least E-1.
func (s *System) refreshLine(ln *memsys.Lane, line *cache.Line, w int, addr prog.Word, cc *cache.Cache, tr *cache.Tracker) {
	base := cc.LineBase(addr)
	for i := 0; i < cc.LineWords(); i++ {
		line.Vals[i] = ln.Value(base + prog.Word(i))
		if nt := s.Epoch - 1; line.TT[i] == cache.TTInvalid || line.TT[i] < nt {
			line.TT[i] = nt
		}
		tr.NoteCached(base + prog.Word(i))
	}
	if !s.Cfg.LineTimetags {
		line.TT[w] = s.Epoch
	}
	line.Used[w] = true
	cc.Touch(line)
}

// chargeLineMiss accounts traffic, network load and latency of a line
// fetch by processor p from addr's home node.
func (s *System) chargeLineMiss(ln *memsys.Lane, p int, addr prog.Word) int64 {
	ln.St.ReadTrafficWords += int64(s.Cfg.LineWords)
	ln.Inject(int64(s.Cfg.LineWords) + 1)
	lat := s.LineMissLatencyFor(p, addr)
	ln.St.MissLatencySum += lat
	return lat
}

// bypassRead fetches one word from memory without validating the cache.
// Any cached copy of the word is refreshed in place (value only) so that
// later covered reads of the same task see current data.
func (s *System) bypassRead(ln *memsys.Lane, p int, addr prog.Word) (float64, int64) {
	v := ln.Value(addr)
	cc := s.caches[p]
	if line, w, ok := cc.Lookup(addr); ok && line.ValidWord(w) {
		line.Vals[w] = v
	}
	ln.St.ReadMisses[stats.MissBypass]++
	ln.St.ReadTrafficWords++
	ln.Inject(2)
	lat := s.WordMissLatencyFor(p, addr)
	ln.St.MissLatencySum += lat
	return v, lat
}

// Write implements memsys.System: write-through with an infinite write
// buffer; the processor does not stall. Critical stores are written
// through immediately (no coalescing) and self-invalidated so no cache
// holds a copy that claims epoch-freshness for lock-protected data.
func (s *System) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	ln := s.LaneFor(p)
	if crit {
		return s.writeCritical(ln, p, addr, val)
	}
	ln.St.Writes++
	ln.Write(addr, val, p, s.Epoch)
	cc, tr := s.procState(p)
	wtt := s.Epoch
	if s.Cfg.LineTimetags {
		// A line-granular tag cannot record a single-word write; the
		// written value is usable via the ordinary validity rules only.
		wtt = s.Epoch - 1
	}
	line, w, ok := cc.Lookup(addr)
	hit := ok && line.ValidWord(w)
	if hit {
		ln.St.WriteHits++
	} else {
		// Classify before the tracker below records the new residency.
		ln.St.WriteMisses[s.ClassifyMissLane(ln, tr, addr)]++
	}
	if ok {
		line.Vals[w] = val
		if line.TT[w] < wtt || line.TT[w] == cache.TTInvalid {
			line.TT[w] = wtt
		}
		line.Used[w] = true
		cc.Touch(line)
		tr.NoteCached(addr)
	} else {
		// Write-validate allocation: claim a frame, validate only the
		// written word (no fetch-on-write).
		v := cc.Victim(addr)
		if v.State != cache.Invalid {
			s.evictFor(ln, p, v)
		}
		tag, w := cc.Split(addr)
		v.Tag = tag
		v.State = cache.Shared
		v.Vals[w] = val
		v.TT[w] = wtt
		v.Used[w] = true
		cc.Touch(v)
		tr.NoteCached(addr)
	}
	if s.Cfg.TPIWriteBack {
		// Write-back-at-boundary: the write stays dirty in the cache (the
		// simulator keeps memory values authoritative; only traffic and
		// stalls follow the policy) and drains at the next barrier.
		if line, w, ok := cc.Lookup(addr); ok {
			line.DirtyW[w] = true
		}
		return 0
	}
	if s.wbufs[p].Write(addr) {
		ln.St.WriteTrafficWords++
		ln.Inject(1)
	} else {
		ln.St.WritesCoalesced++
	}
	if s.Cfg.SeqConsistency {
		// write-through must be globally performed before the processor
		// proceeds: the whole remote store latency is exposed.
		lat := s.WordMissLatencyFor(p, addr)
		if !hit {
			ln.St.WriteMissLatencySum += lat
		}
		return lat
	}
	return 0
}

func (s *System) writeCritical(ln *memsys.Lane, p int, addr prog.Word, val float64) int64 {
	ln.St.Writes++
	ln.St.WriteMisses[stats.MissBypass]++
	ln.Write(addr, val, p, s.Epoch)
	cc, tr := s.procState(p)
	if line, w, ok := cc.Lookup(addr); ok && line.ValidWord(w) {
		tr.NoteLost(addr, cache.LostInvalTrue, line.TT[w])
		line.InvalidateWord(w)
	}
	ln.St.WriteTrafficWords++
	ln.Inject(1)
	return 0
}

func (s *System) evictFor(ln *memsys.Lane, p int, v *cache.Line) {
	cc, tr := s.caches[p], s.trackers[p]
	base := prog.Word(v.Tag * int64(cc.LineWords()))
	for i := 0; i < cc.LineWords(); i++ {
		if v.TT[i] != cache.TTInvalid {
			tr.NoteLost(base+prog.Word(i), cache.LostReplaced, v.TT[i])
		}
		if v.DirtyW[i] {
			ln.St.WriteTrafficWords++
			ln.Inject(1)
		}
	}
	v.InvalidateLine()
}

// EpochBoundary implements memsys.System: the barrier drains write
// buffers (or, under the write-back policy, flushes every dirty word in
// a burst), and when the epoch counter crosses a phase boundary it runs
// the two-phase timetag reset (or the flash-invalidate ablation).
func (s *System) EpochBoundary(epoch int64) int64 {
	s.Epoch = epoch
	var stall int64
	if s.Cfg.TPIWriteBack {
		stall += s.flushDirty()
	}
	for _, wb := range s.wbufs {
		if wb != nil {
			wb.Flush()
		}
	}
	switch {
	case s.Cfg.FlashReset:
		if epoch > 0 && epoch%(2*s.phase) == 0 {
			s.St.TimetagResets++
			before := s.St.ResetInvalidations
			for p := 0; p < s.Cfg.Procs; p++ {
				s.flashInvalidate(p)
			}
			stall += s.Cfg.ResetCycles
			if s.Probe != nil {
				s.Probe.TimetagReset(epoch, s.St.ResetInvalidations-before)
			}
		}
	default:
		if epoch > 0 && epoch%s.phase == 0 {
			s.St.TimetagResets++
			before := s.St.ResetInvalidations
			cut := epoch - s.phase
			for p := 0; p < s.Cfg.Procs; p++ {
				s.resetOutOfPhase(p, cut)
			}
			stall += s.Cfg.ResetCycles
			if s.Probe != nil {
				s.Probe.TimetagReset(epoch, s.St.ResetInvalidations-before)
			}
		}
	}
	return stall
}

// flushDirty drains every dirty word at the barrier (the burst the paper
// warns about), returning the stall: the slowest processor's dirty words
// at FlushBandwidth words/cycle.
func (s *System) flushDirty() int64 {
	bw := s.Cfg.FlushBandwidth
	if bw <= 0 {
		bw = 1
	}
	var worst int64
	for p := 0; p < s.Cfg.Procs; p++ {
		cc := s.caches[p]
		if cc == nil {
			continue
		}
		var dirty int64
		cc.ForEachValidLine(func(l *cache.Line) {
			for i := range l.DirtyW {
				if l.DirtyW[i] {
					dirty++
					l.DirtyW[i] = false
				}
			}
		})
		s.St.FlushedWords += dirty
		s.St.WriteTrafficWords += dirty
		s.Netw.Inject(dirty)
		if dirty > worst {
			worst = dirty
		}
	}
	stall := (worst + bw - 1) / bw
	s.St.FlushStallCycles += stall
	return stall
}

// resetOutOfPhase invalidates every word whose timetag is at or below the
// cut (one full phase old): the two-phase hardware reset.
func (s *System) resetOutOfPhase(p int, cut int64) {
	cc, tr := s.caches[p], s.trackers[p]
	if cc == nil {
		return
	}
	cc.ForEachValidLine(func(l *cache.Line) {
		base := prog.Word(l.Tag * int64(cc.LineWords()))
		live := 0
		for i := 0; i < cc.LineWords(); i++ {
			if l.TT[i] == cache.TTInvalid {
				continue
			}
			if l.TT[i] <= cut {
				tr.NoteLost(base+prog.Word(i), cache.LostReset, l.TT[i])
				l.InvalidateWord(i)
				s.St.ResetInvalidations++
			} else {
				live++
			}
		}
		if live == 0 {
			l.InvalidateLine()
		}
	})
}

// flashInvalidate drops the whole cache (the simple overflow strategy the
// paper rejects).
func (s *System) flashInvalidate(p int) {
	cc, tr := s.caches[p], s.trackers[p]
	if cc == nil {
		return
	}
	cc.ForEachValidLine(func(l *cache.Line) {
		base := prog.Word(l.Tag * int64(cc.LineWords()))
		for i := 0; i < cc.LineWords(); i++ {
			if l.TT[i] != cache.TTInvalid {
				tr.NoteLost(base+prog.Word(i), cache.LostReset, l.TT[i])
				s.St.ResetInvalidations++
			}
		}
		l.InvalidateLine()
	})
}

// Caches exposes the per-processor caches for white-box tests,
// materializing any a lazy run has not built yet.
func (s *System) Caches() []*cache.Cache {
	for p := range s.caches {
		if s.caches[p] == nil {
			s.procState(p)
		}
	}
	return s.caches
}

// InitReadCursor implements memsys.System: regular and Time-Reads
// inline the timetag hit check (the Time-Read cut is E - min(w, maxW),
// the regular cut accepts any valid word); bypass reads always take the
// scalar bypass path.
func (s *System) InitReadCursor(c *memsys.ReadCursor, p int, kind memsys.ReadKind, window int, addr0 prog.Word) {
	if kind == memsys.ReadBypass {
		*c = memsys.ReadCursor{Mode: memsys.StreamUncached, Sys: s, Ln: s.LaneFor(p), Proc: p, Kind: kind, Window: window}
		return
	}
	cut := int64(math.MinInt64)
	if kind == memsys.ReadTime {
		cut = s.Epoch - s.effWindow(window)
	}
	ln := s.LaneFor(p)
	cc, _ := s.procState(p)
	*c = memsys.ReadCursor{
		Mode: memsys.StreamCached, Sys: s, Core: s.Core, Ln: ln, CC: cc,
		Proc: p, Kind: kind, Window: window, Cut: cut, PromoteTT: !s.Cfg.LineTimetags,
		Epoch: s.Epoch, HitCycles: s.Cfg.HitCycles, HitCtx: kind.HitContext(),
		Fresh: ln.FreshWords(),
	}
}

// InitWriteCursor implements memsys.System: write-through (or the
// write-back-at-boundary policy) with the promote-if-older tag rule.
func (s *System) InitWriteCursor(c *memsys.WriteCursor, p int, addr0 prog.Word) {
	wtt := s.Epoch
	if s.Cfg.LineTimetags {
		wtt = s.Epoch - 1
	}
	cc, tr := s.procState(p)
	*c = memsys.WriteCursor{
		Mode: memsys.StreamCached, Sys: s, Core: s.Core, Ln: s.LaneFor(p),
		CC: cc, Tr: tr, WB: s.wbufs[p],
		Proc: p, Epoch: s.Epoch, WTT: wtt, PromoteTT: true,
		WriteBack: s.Cfg.TPIWriteBack, SeqC: s.Cfg.SeqConsistency,
	}
}
