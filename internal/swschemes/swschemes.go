// Package swschemes implements the paper's two software-side comparison
// schemes:
//
//   - BASE: no caching of shared data at all. Every shared reference is a
//     remote memory access. This is the "rely on the user" baseline of
//     machines like the Cray T3D.
//   - SC: software cache-bypass. Compiler-identified potentially-stale
//     references bypass the cache and fetch from memory; everything else
//     caches with write-through. SC keeps intra-task reuse but no
//     intertask locality.
package swschemes

import (
	"math"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
	"repro/internal/stats"
)

// Base is the uncached-shared-data scheme.
type Base struct {
	*memsys.Core
}

// NewBase builds a BASE system.
func NewBase(cfg machine.Config, memWords int64) *Base {
	return &Base{Core: memsys.NewCore(cfg, memWords)}
}

// Name implements memsys.System.
func (s *Base) Name() string { return "BASE" }

// Read implements memsys.System: every read is a remote word fetch.
func (s *Base) Read(p int, addr prog.Word, kind memsys.ReadKind, window int) (float64, int64) {
	ln := s.LaneFor(p)
	ln.St.Reads++
	ln.St.ReadMisses[stats.MissBypass]++
	ln.St.ReadTrafficWords++
	ln.Inject(2)
	lat := s.WordMissLatencyFor(p, addr)
	ln.St.MissLatencySum += lat
	return ln.Value(addr), lat
}

// Write implements memsys.System: every write is a remote word store; the
// write buffer hides the latency.
func (s *Base) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	ln := s.LaneFor(p)
	ln.St.Writes++
	ln.St.WriteMisses[stats.MissBypass]++
	ln.Write(addr, val, p, s.Epoch)
	ln.St.WriteTrafficWords++
	ln.Inject(1)
	if s.Cfg.SeqConsistency {
		lat := s.WordMissLatencyFor(p, addr)
		ln.St.WriteMissLatencySum += lat
		return lat
	}
	return 0
}

// EpochBoundary implements memsys.System.
func (s *Base) EpochBoundary(epoch int64) int64 {
	s.Epoch = epoch
	return 0
}

// InitReadCursor implements memsys.System: every BASE read is the
// inlined uncached remote word fetch.
func (s *Base) InitReadCursor(c *memsys.ReadCursor, p int, kind memsys.ReadKind, window int, addr0 prog.Word) {
	*c = memsys.ReadCursor{Mode: memsys.StreamBase, Core: s.Core, Ln: s.LaneFor(p), Proc: p}
}

// InitWriteCursor implements memsys.System.
func (s *Base) InitWriteCursor(c *memsys.WriteCursor, p int, addr0 prog.Word) {
	*c = memsys.WriteCursor{
		Mode: memsys.StreamBase, Core: s.Core, Ln: s.LaneFor(p),
		Proc: p, Epoch: s.Epoch, SeqC: s.Cfg.SeqConsistency,
	}
}

// SC is the software cache-bypass scheme.
type SC struct {
	*memsys.Core
	caches   []*cache.Cache
	trackers []*cache.Tracker
	wbufs    []*cache.WriteBuffer
}

// NewSC builds an SC system.
func NewSC(cfg machine.Config, memWords int64) *SC {
	s := &SC{Core: memsys.NewCore(cfg, memWords)}
	s.caches = make([]*cache.Cache, cfg.Procs)
	s.trackers = make([]*cache.Tracker, cfg.Procs)
	s.wbufs = make([]*cache.WriteBuffer, cfg.Procs)
	s.OnRelease(s)
	return s
}

// procState returns p's cache and tracker (building them, and the write
// buffer, on first use). Safe under host parallelism: each processor is
// owned by exactly one worker, so concurrent first-touches write
// distinct slice elements.
func (s *SC) procState(p int) (*cache.Cache, *cache.Tracker) {
	if cc := s.caches[p]; cc != nil {
		return cc, s.trackers[p]
	}
	cc := cache.New(s.Cfg.CacheWords, s.Cfg.LineWords, s.Cfg.Assoc)
	s.caches[p] = cc
	s.trackers[p] = cache.NewTracker(s.Memory.Size())
	s.wbufs[p] = cache.NewWriteBuffer(s.Cfg.WriteBufferCache)
	return cc, s.trackers[p]
}

// Name implements memsys.System.
func (s *SC) Name() string { return "SC" }

// ReleaseOwn implements memsys.OwnReleaser. The fields are nilled so any
// use after release fails loudly instead of corrupting a pooled cache.
func (s *SC) ReleaseOwn() {
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

// Read implements memsys.System. Potentially-stale reads (Time-Read or
// bypass marks) fetch the word from memory without validating the cache;
// a present copy is refreshed in place so later covered reads of the same
// task stay correct. Regular reads cache normally.
func (s *SC) Read(p int, addr prog.Word, kind memsys.ReadKind, window int) (float64, int64) {
	ln := s.LaneFor(p)
	ln.St.Reads++
	cc, tr := s.procState(p)

	if kind != memsys.ReadRegular {
		v := ln.Value(addr)
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

	if line, w, ok := cc.Lookup(addr); ok && line.ValidWord(w) {
		ln.St.ReadHits++
		line.Used[w] = true
		cc.Touch(line)
		ln.CheckFresh(addr, line.Vals[w], p, "sc regular hit")
		return line.Vals[w], s.Cfg.HitCycles
	}
	ln.St.ReadMisses[s.ClassifyMissLane(ln, tr, addr)]++
	nl, nw := s.FillLane(ln, cc, tr, addr, s.Epoch, s.Epoch)
	ln.St.ReadTrafficWords += int64(s.Cfg.LineWords)
	ln.Inject(int64(s.Cfg.LineWords) + 1)
	lat := s.LineMissLatencyFor(p, addr)
	ln.St.MissLatencySum += lat
	return nl.Vals[nw], lat
}

// Write implements memsys.System: write-through, write-validate allocate.
// Critical stores self-invalidate like TPI's.
func (s *SC) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	ln := s.LaneFor(p)
	ln.St.Writes++
	ln.Write(addr, val, p, s.Epoch)
	cc, tr := s.procState(p)
	if crit {
		ln.St.WriteMisses[stats.MissBypass]++
		if line, w, ok := cc.Lookup(addr); ok && line.ValidWord(w) {
			tr.NoteLost(addr, cache.LostInvalTrue, line.TT[w])
			line.InvalidateWord(w)
		}
		ln.St.WriteTrafficWords++
		ln.Inject(1)
		return 0
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
		line.TT[w] = s.Epoch
		line.Used[w] = true
		cc.Touch(line)
		tr.NoteCached(addr)
	} else {
		v := cc.Victim(addr)
		if v.State != cache.Invalid {
			base := prog.Word(v.Tag * int64(cc.LineWords()))
			for i := 0; i < cc.LineWords(); i++ {
				if v.TT[i] != cache.TTInvalid {
					tr.NoteLost(base+prog.Word(i), cache.LostReplaced, v.TT[i])
				}
			}
			v.InvalidateLine()
		}
		tag, w := cc.Split(addr)
		v.Tag = tag
		v.State = cache.Shared
		v.Vals[w] = val
		v.TT[w] = s.Epoch
		v.Used[w] = true
		cc.Touch(v)
		tr.NoteCached(addr)
	}
	if s.wbufs[p].Write(addr) {
		ln.St.WriteTrafficWords++
		ln.Inject(1)
	} else {
		ln.St.WritesCoalesced++
	}
	if s.Cfg.SeqConsistency {
		lat := s.WordMissLatencyFor(p, addr)
		if !hit {
			ln.St.WriteMissLatencySum += lat
		}
		return lat
	}
	return 0
}

// EpochBoundary implements memsys.System.
func (s *SC) EpochBoundary(epoch int64) int64 {
	s.Epoch = epoch
	for _, wb := range s.wbufs {
		if wb != nil {
			wb.Flush()
		}
	}
	return 0
}

// InitReadCursor implements memsys.System: regular reads inline the
// cache hit (any valid word hits, so the cut is the minimum timetag);
// marked reads always take SC's bypass path.
func (s *SC) InitReadCursor(c *memsys.ReadCursor, p int, kind memsys.ReadKind, window int, addr0 prog.Word) {
	if kind != memsys.ReadRegular {
		*c = memsys.ReadCursor{Mode: memsys.StreamUncached, Sys: s, Ln: s.LaneFor(p), Proc: p, Kind: kind, Window: window}
		return
	}
	ln := s.LaneFor(p)
	cc, _ := s.procState(p)
	*c = memsys.ReadCursor{
		Mode: memsys.StreamCached, Sys: s, Core: s.Core, Ln: ln, CC: cc,
		Proc: p, Kind: kind, Window: window, Cut: math.MinInt64,
		Epoch: s.Epoch, HitCycles: s.Cfg.HitCycles, HitCtx: "sc regular hit",
		Fresh: ln.FreshWords(),
	}
}

// InitWriteCursor implements memsys.System: write-through with the
// unconditional tag assignment (PromoteTT false).
func (s *SC) InitWriteCursor(c *memsys.WriteCursor, p int, addr0 prog.Word) {
	cc, tr := s.procState(p)
	*c = memsys.WriteCursor{
		Mode: memsys.StreamCached, Sys: s, Core: s.Core, Ln: s.LaneFor(p),
		CC: cc, Tr: tr, WB: s.wbufs[p],
		Proc: p, Epoch: s.Epoch, WTT: s.Epoch,
		SeqC: s.Cfg.SeqConsistency,
	}
}
