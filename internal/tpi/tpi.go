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
	phase int64 // two-phase reset period: half the timetag range
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
	s.EnableCaches(true)
	return s
}

// Name implements memsys.System.
func (s *System) Name() string { return "TPI" }

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
	if kind == memsys.ReadBypass {
		return s.BypassRead(ln, p, addr)
	}
	cc, tr := s.ProcState(p)

	f, w, present := cc.Lookup(addr)
	if present && cc.ValidWord(f, w) {
		ok := true
		if kind == memsys.ReadTime && cc.TT(f, w) < s.Epoch-s.effWindow(window) {
			ok = false
		}
		if ok {
			ln.St.ReadHits++
			if !s.Cfg.LineTimetags {
				// Per-word tags may be promoted on a validated hit; a
				// line-granular tag may not (its other words could have
				// been written by other tasks since the fill).
				cc.SetTT(f, w, s.Epoch)
			}
			cc.MarkUsed(f, w)
			cc.Touch(f)
			v := cc.Val(f, w)
			ln.CheckFresh(addr, v, p, kind.HitContext())
			return v, s.Cfg.HitCycles
		}
		// Window failure on a present word: necessary (data really
		// changed) or conservative (compiler/window artifact)?
		if ln.LastWriteEpoch(addr) > cc.TT(f, w) {
			ln.St.ReadMisses[stats.MissTrueSharing]++
		} else {
			ln.St.ReadMisses[stats.MissConservative]++
		}
		s.refreshLine(ln, f, w, addr, cc, tr)
		return cc.Val(f, w), s.ChargeLineMiss(ln, p, addr)
	}

	// Word absent (whole line, or a word-grain hole).
	ln.St.ReadMisses[s.ClassifyMissLane(ln, tr, addr)]++
	if present {
		s.refreshLine(ln, f, w, addr, cc, tr)
		return cc.Val(f, w), s.ChargeLineMiss(ln, p, addr)
	}
	accessedTT := s.Epoch
	if s.Cfg.LineTimetags {
		accessedTT = s.Epoch - 1 // the line tag claims only fill freshness
	}
	nf, nw := s.FillLane(ln, cc, tr, addr, accessedTT, s.Epoch-1)
	lat := s.ChargeLineMiss(ln, p, addr)
	s.maybePrefetch(ln, cc, tr, addr)
	return cc.Val(nf, nw), lat
}

// maybePrefetch fetches the sequentially-next line after a demand miss
// (one-block lookahead). The prefetched words carry neighbour-rule
// timetags (E-1): they are data prefetches, not freshness claims.
func (s *System) maybePrefetch(ln *memsys.Lane, cc *cache.Cache, tr *cache.Tracker, addr prog.Word) {
	if !s.Cfg.Prefetch {
		return
	}
	next := cc.LineBase(addr) + prog.Word(cc.LineWords())
	if int64(next) >= s.Memory.Size() {
		return
	}
	if _, _, ok := cc.Lookup(next); ok {
		return // already resident
	}
	s.FillLane(ln, cc, tr, next, s.Epoch-1, s.Epoch-1)
	ln.St.ReadTrafficWords += int64(s.Cfg.LineWords)
	ln.St.PrefetchedLines++
	ln.Inject(int64(s.Cfg.LineWords) + 1)
	// No processor stall: the prefetch overlaps with computation.
}

// refreshLine refetches a present line's data from memory, promoting the
// accessed word to the current epoch and its neighbours to at least E-1.
func (s *System) refreshLine(ln *memsys.Lane, f cache.Frame, w int, addr prog.Word, cc *cache.Cache, tr *cache.Tracker) {
	base := cc.LineBase(addr)
	for i := 0; i < cc.LineWords(); i++ {
		cc.SetVal(f, i, ln.Value(base+prog.Word(i)))
		if nt := s.Epoch - 1; cc.TT(f, i) < nt {
			cc.SetTT(f, i, nt)
		}
		tr.NoteCached(base + prog.Word(i))
	}
	if !s.Cfg.LineTimetags {
		cc.SetTT(f, w, s.Epoch)
	}
	cc.MarkUsed(f, w)
	cc.Touch(f)
}

// Write implements memsys.System: write-through with an infinite write
// buffer (or the write-back-at-boundary policy); the processor does not
// stall. Critical stores are written through immediately (no
// coalescing) and self-invalidated so no cache holds a copy that claims
// epoch-freshness for lock-protected data.
func (s *System) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	ln := s.LaneFor(p)
	if crit {
		ln.Write(addr, val, p, s.Epoch)
		s.StoreCritical(ln, p, addr)
		return 0
	}
	return s.StoreLane(ln, p, addr, val, s.writeTT(), true, s.Cfg.TPIWriteBack)
}

// writeTT is the timetag a store gives its word: the epoch, or E-1 under
// line-granular tags, which cannot record a single-word write (the
// written value is usable via the ordinary validity rules only).
func (s *System) writeTT() int64 {
	if s.Cfg.LineTimetags {
		return s.Epoch - 1
	}
	return s.Epoch
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
	s.FlushWriteBuffers()
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
		cc, _ := s.CacheOf(p)
		if cc == nil {
			continue
		}
		var dirty int64
		cc.ForEachValidLine(func(f cache.Frame) {
			dirty += cc.FlushDirtyWords(f)
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
	cc, tr := s.CacheOf(p)
	if cc == nil {
		return
	}
	cc.ForEachValidLine(func(f cache.Frame) {
		base := prog.Word(cc.Tag(f) * int64(cc.LineWords()))
		live := 0
		for i := 0; i < cc.LineWords(); i++ {
			tt := cc.TT(f, i)
			if tt == cache.TTInvalid {
				continue
			}
			if tt <= cut {
				tr.NoteLost(base+prog.Word(i), cache.LostReset, tt)
				cc.InvalidateWord(f, i)
				s.St.ResetInvalidations++
			} else {
				live++
			}
		}
		if live == 0 {
			cc.InvalidateLine(f)
		}
	})
}

// flashInvalidate drops the whole cache (the simple overflow strategy the
// paper rejects).
func (s *System) flashInvalidate(p int) {
	cc, tr := s.CacheOf(p)
	if cc == nil {
		return
	}
	cc.ForEachValidLine(func(f cache.Frame) {
		s.St.ResetInvalidations += tr.NoteLineLost(cc, f, cache.LostReset)
		cc.InvalidateLine(f)
	})
}

// InitReadCursor implements memsys.System: regular and Time-Reads
// inline the timetag hit check (the Time-Read cut is E - min(w, maxW),
// the regular cut accepts any valid word); bypass reads always take the
// scalar bypass path.
func (s *System) InitReadCursor(c *memsys.ReadCursor, p int, kind memsys.ReadKind, window int, addr0 prog.Word) {
	if kind == memsys.ReadBypass {
		s.InitUncachedReadCursor(c, s, p, kind, window)
		return
	}
	cut := int64(math.MinInt64)
	if kind == memsys.ReadTime {
		cut = s.Epoch - s.effWindow(window)
	}
	s.InitCachedReadCursor(c, s, p, kind, window, cut, !s.Cfg.LineTimetags, kind.HitContext())
}

// InitWriteCursor implements memsys.System: write-through (or the
// write-back-at-boundary policy) with the promote-if-older tag rule.
func (s *System) InitWriteCursor(c *memsys.WriteCursor, p int, addr0 prog.Word) {
	s.InitStoreCursor(c, s, p, s.writeTT(), true, s.Cfg.TPIWriteBack)
}
