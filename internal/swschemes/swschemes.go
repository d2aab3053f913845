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
}

// NewSC builds an SC system.
func NewSC(cfg machine.Config, memWords int64) *SC {
	s := &SC{Core: memsys.NewCore(cfg, memWords)}
	s.EnableCaches(true)
	return s
}

// Name implements memsys.System.
func (s *SC) Name() string { return "SC" }

// Read implements memsys.System. Potentially-stale reads (Time-Read or
// bypass marks) fetch the word from memory without validating the cache;
// a present copy is refreshed in place so later covered reads of the same
// task stay correct. Regular reads cache normally.
func (s *SC) Read(p int, addr prog.Word, kind memsys.ReadKind, window int) (float64, int64) {
	ln := s.LaneFor(p)
	ln.St.Reads++
	if kind != memsys.ReadRegular {
		return s.BypassRead(ln, p, addr)
	}
	cc, tr := s.ProcState(p)
	if line, w, ok := cc.Lookup(addr); ok && line.ValidWord(w) {
		ln.St.ReadHits++
		line.Used[w] = true
		cc.Touch(line)
		ln.CheckFresh(addr, line.Vals[w], p, "sc regular hit")
		return line.Vals[w], s.Cfg.HitCycles
	}
	ln.St.ReadMisses[s.ClassifyMissLane(ln, tr, addr)]++
	nl, nw := s.FillLane(ln, cc, tr, addr, s.Epoch, s.Epoch)
	return nl.Vals[nw], s.ChargeLineMiss(ln, p, addr)
}

// Write implements memsys.System: write-through, write-validate
// allocate, each word stamped with the epoch. Critical stores
// self-invalidate like TPI's.
func (s *SC) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	ln := s.LaneFor(p)
	if crit {
		ln.Write(addr, val, p, s.Epoch)
		s.StoreCritical(ln, p, addr)
		return 0
	}
	return s.StoreLane(ln, p, addr, val, s.Epoch, false, false)
}

// EpochBoundary implements memsys.System.
func (s *SC) EpochBoundary(epoch int64) int64 {
	s.Epoch = epoch
	s.FlushWriteBuffers()
	return 0
}

// InitReadCursor implements memsys.System: regular reads inline the
// cache hit (any valid word hits, so the cut is the minimum timetag);
// marked reads always take SC's bypass path.
func (s *SC) InitReadCursor(c *memsys.ReadCursor, p int, kind memsys.ReadKind, window int, addr0 prog.Word) {
	if kind != memsys.ReadRegular {
		s.InitUncachedReadCursor(c, s, p, kind, window)
		return
	}
	s.InitCachedReadCursor(c, s, p, kind, window, math.MinInt64, false, "sc regular hit")
}

// InitWriteCursor implements memsys.System: write-through with the
// unconditional tag assignment.
func (s *SC) InitWriteCursor(c *memsys.WriteCursor, p int, addr0 prog.Word) {
	s.InitStoreCursor(c, s, p, s.Epoch, false, false)
}
