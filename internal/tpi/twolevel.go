package tpi

// Two-level "off-the-shelf microprocessor" implementation (paper §3).
//
// Commodity CPUs (the paper names the MIPS R10000 and the PowerPC 600
// series) have on-chip caches with no room for per-word timetags, so the
// TPI state lives in the off-chip L2 SRAM. Ordinary loads may hit the
// on-chip L1; a Time-Read cannot be validated there, so the compiler
// emits a cache-block-invalidate followed by a regular load ("Index
// Write Back Invalidate" on the R10000, DCBF on the PowerPC): the L1
// word is discarded and the access is re-validated against the L2
// timetags, paying at least the L2 latency even when the data was
// on-chip and fresh.
//
// The model here: when cfg.L1Words > 0, every processor gets an L1 in
// front of the existing (timetagged) cache, which plays the L2 role.
//   - regular load: L1 hit (L1HitCycles) else L2 path + L1 fill.
//   - Time-Read:    invalidate the L1 word, run the L2 Time-Read path
//                   (L2HitCycles on an L2 timetag hit), refill L1.
//   - bypass load:  invalidate the L1 word, fetch memory.
//   - store:        write-through both levels (write-validate allocate
//                   in L1 only on hit).
// Inclusion is maintained the cheap way: L1 data is always a subset of
// what the L2 path would return, because every L1 fill comes from an L2
// access that just validated or fetched the word.

import (
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
)

// TwoLevel wraps the TPI system with per-processor on-chip L1 caches.
// The L1 filter counters (L1Hits, L1Misses, TimeReadL1Invalidations)
// live in stats.Stats and route through the processor's lane, so the
// two-level model shards across host goroutines and streams exactly
// like plain TPI.
type TwoLevel struct {
	*System
	l1 []*cache.Cache
}

// NewTwoLevel builds the off-the-shelf implementation.
func NewTwoLevel(cfg machine.Config, memWords int64) *TwoLevel {
	t := &TwoLevel{System: New(cfg, memWords)}
	t.l1 = make([]*cache.Cache, cfg.Procs)
	t.OnRelease(t)
	return t
}

// l1For returns p's L1, building it on first use (same single-owner
// argument as Core.ProcState).
func (t *TwoLevel) l1For(p int) *cache.Cache {
	if l1 := t.l1[p]; l1 != nil {
		return l1
	}
	l1 := cache.New(t.Cfg.L1Words, t.Cfg.LineWords, t.Cfg.Assoc)
	t.l1[p] = l1
	return l1
}

// Name implements memsys.System.
func (t *TwoLevel) Name() string { return "TPI2L" }

// ReleaseOwn implements memsys.OwnReleaser: the L1s return to the
// pool; Core.ReleaseCaches then returns the timetagged L2 caches.
func (t *TwoLevel) ReleaseOwn() {
	for _, cc := range t.l1 {
		if cc != nil {
			cache.Release(cc)
		}
	}
	t.l1 = nil
}

// Read implements memsys.System.
func (t *TwoLevel) Read(p int, addr prog.Word, kind memsys.ReadKind, window int) (float64, int64) {
	l1 := t.l1For(p)

	if kind == memsys.ReadRegular {
		if line, w, ok := l1.Lookup(addr); ok && line.ValidWord(w) {
			ln := t.LaneFor(p)
			ln.St.L1Hits++
			ln.St.Reads++
			ln.St.ReadHits++
			l1.Touch(line)
			ln.CheckFresh(addr, line.Vals[w], p, "tpi2l L1 hit")
			return line.Vals[w], t.Cfg.L1HitCycles
		}
		t.LaneFor(p).St.L1Misses++
		v, lat := t.System.Read(p, addr, kind, window)
		if lat == t.Cfg.HitCycles {
			lat = t.Cfg.L2HitCycles // the L2 tag+timetag access is slower
		}
		memsys.FillWordL1(l1, addr, v)
		return v, lat
	}

	// Time-Read / bypass: the on-chip copy cannot be validated; the
	// compiled sequence invalidates it and re-reads through the L2.
	if line, w, ok := l1.Lookup(addr); ok && line.ValidWord(w) {
		line.InvalidateWord(w)
		t.LaneFor(p).St.TimeReadL1Invalidations++
	}
	v, lat := t.System.Read(p, addr, kind, window)
	if lat == t.Cfg.HitCycles {
		lat = t.Cfg.L2HitCycles
	}
	if kind == memsys.ReadTime {
		memsys.FillWordL1(l1, addr, v)
	}
	return v, lat
}

// Write implements memsys.System: write-through both levels.
func (t *TwoLevel) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	l1 := t.l1For(p)
	if line, w, ok := l1.Lookup(addr); ok && line.ValidWord(w) {
		if crit {
			line.InvalidateWord(w)
		} else {
			line.Vals[w] = val
		}
	}
	return t.System.Write(p, addr, val, crit)
}

// EpochBoundary implements memsys.System. The L1 needs no epoch actions:
// it holds no coherence state (Time-Reads never trust it), and two-phase
// resets apply to the timetagged L2 only. Regular reads may keep hitting
// stale-capable L1 words only if the compiler proved them never-stale,
// which is exactly the Regular contract.
func (t *TwoLevel) EpochBoundary(epoch int64) int64 {
	return t.System.EpochBoundary(epoch)
}

// InitReadCursor implements memsys.System: the inner TPI cursor is
// built first (it carries the L2 hit predicate, lane, and fallback
// target — the embedded System, so fallbacks never re-run the L1
// filter), then the L1 front is layered on as StreamTwoLevel.
func (t *TwoLevel) InitReadCursor(c *memsys.ReadCursor, p int, kind memsys.ReadKind, window int, addr0 prog.Word) {
	t.System.InitReadCursor(c, p, kind, window, addr0)
	c.Inner = c.Mode
	c.Mode = memsys.StreamTwoLevel
	// The uncached (bypass) inner init leaves Ln and HitCycles unset; the
	// L1 layer needs both (lane counters, L2-latency substitution).
	c.Ln = t.LaneFor(p)
	c.HitCycles = t.Cfg.HitCycles
	c.L1 = t.l1For(p)
	c.L1HitCycles = t.Cfg.L1HitCycles
	c.L2HitCycles = t.Cfg.L2HitCycles
}

// InitWriteCursor implements memsys.System: write-through both levels
// (stream writes are never critical, so the L1 word is updated in place
// when valid).
func (t *TwoLevel) InitWriteCursor(c *memsys.WriteCursor, p int, addr0 prog.Word) {
	t.System.InitWriteCursor(c, p, addr0)
	c.Inner = c.Mode
	c.Mode = memsys.StreamTwoLevel
	c.L1 = t.l1For(p)
}
