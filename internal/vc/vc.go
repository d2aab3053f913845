// Package vc implements the version-control HSCD coherence scheme of
// Cheong and Veidenbaum (ICS 1989) — the paper's closest predecessor,
// compared against hardware directories by Lilja. It is our extension to
// the paper's four-scheme comparison.
//
// Mechanism: every shared variable X (each array and each scalar) has a
// current version number CVN(X); every cache word carries the birth
// version number (BVN) it was created under. The compiler (here: the
// section analysis) tells the hardware, at each epoch boundary, which
// variables the finished epoch may have written; their CVNs advance.
//
//	read hit:  word valid AND BVN >= CVN(var of word)
//	write:     BVN := CVN + 1  (the write creates the next version)
//	fill:      BVN := CVN      (memory holds the current version)
//
// Compared with TPI, coherence state is per *variable* rather than per
// word with epoch distances: one write anywhere in a large array ages
// every cached element of it, so VC loses intertask locality whenever an
// array is partially updated — exactly the gap the paper's timetags
// close. Compared with SC, unmodified variables stay cacheable across
// epochs.
//
// Execution model: VC runs always-buffered (EnableAlwaysBuffered). Its
// version-failure reclassification compares a cached value against
// memory, so pass-through sequential execution and buffered host-
// parallel execution would observe different neighbor values mid-epoch.
// With every epoch on buffered lanes, reads see (own buffered stores,
// then pre-epoch memory) in both modes, CVNs are frozen mid-epoch
// (EpochMods only runs at boundaries), and the lane merge at FlushEpoch
// is the single canonical serialization — sequential and host-parallel
// runs are bit-identical by construction.
package vc

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
	"repro/internal/stats"
)

// System is the version-control memory system.
type System struct {
	*memsys.Core

	cvn    []int64 // current version number per variable
	varOf  []int32 // word address -> variable id (-1: padding)
	byName map[string]int32
}

// New builds a VC system for a program layout (needed to map addresses
// to variables).
func New(cfg machine.Config, p *prog.Prog) *System {
	s := &System{
		Core:   memsys.NewCore(cfg, p.MemWords),
		byName: map[string]int32{},
	}
	s.varOf = make([]int32, s.Memory.Size())
	for i := range s.varOf {
		s.varOf[i] = -1
	}
	assign := func(name string, base prog.Word, size int64) {
		id := int32(len(s.cvn))
		s.byName[name] = id
		s.cvn = append(s.cvn, 0)
		for w := int64(0); w < size; w++ {
			s.varOf[int64(base)+w] = id
		}
	}
	// Deterministic variable numbering: scalars then arrays, layout order.
	var scalars []*prog.ScalarInfo
	for _, sc := range p.Scalars {
		scalars = append(scalars, sc)
	}
	sort.Slice(scalars, func(i, j int) bool { return scalars[i].Addr < scalars[j].Addr })
	for _, sc := range scalars {
		assign(sc.Name, sc.Addr, 1)
	}
	var arrays []*prog.ArrayInfo
	for _, ai := range p.Arrays {
		arrays = append(arrays, ai)
	}
	sort.Slice(arrays, func(i, j int) bool { return arrays[i].Base < arrays[j].Base })
	for _, ai := range arrays {
		assign(ai.Name, ai.Base, ai.Size)
	}

	s.EnableCaches(true)
	s.EnableAlwaysBuffered()
	return s
}

// Name implements memsys.System.
func (s *System) Name() string { return "VC" }

// cvnAt returns the current version of the variable holding addr
// (padding words version 0, never advanced).
func (s *System) cvnAt(addr prog.Word) int64 {
	id := s.varOf[addr]
	if id < 0 {
		return 0
	}
	return s.cvn[id]
}

// EpochMods implements memsys.Versioned.
func (s *System) EpochMods(names []string) {
	for _, n := range names {
		if id, ok := s.byName[n]; ok {
			s.cvn[id]++
		}
	}
}

// Read implements memsys.System. The Time-Read window is ignored — VC's
// compiler support is only the per-epoch modification sets. Every
// shared-state access routes through the processor's lane (see the
// package comment on always-buffered execution).
func (s *System) Read(p int, addr prog.Word, kind memsys.ReadKind, window int) (float64, int64) {
	ln := s.LaneFor(p)
	ln.St.Reads++
	if kind == memsys.ReadBypass {
		return s.BypassRead(ln, p, addr)
	}
	cc, tr := s.ProcState(p)

	f, w, present := cc.Lookup(addr)
	if present && cc.ValidWord(f, w) {
		if cc.TT(f, w) >= s.cvnAt(addr) {
			ln.St.ReadHits++
			cc.MarkUsed(f, w)
			cc.Touch(f)
			v := cc.Val(f, w)
			ln.CheckFresh(addr, v, p, "vc hit")
			return v, s.Cfg.HitCycles
		}
		// Version failure: did the data actually change?
		if cc.Val(f, w) != ln.Value(addr) {
			ln.St.ReadMisses[stats.MissTrueSharing]++
		} else {
			ln.St.ReadMisses[stats.MissConservative]++
		}
		s.refreshLine(ln, f, w, addr, cc, tr)
		return cc.Val(f, w), s.ChargeLineMiss(ln, p, addr)
	}

	ln.St.ReadMisses[s.ClassifyMissLane(ln, tr, addr)]++
	if present {
		s.refreshLine(ln, f, w, addr, cc, tr)
		return cc.Val(f, w), s.ChargeLineMiss(ln, p, addr)
	}
	nf, nw := s.fillLine(ln, cc, tr, addr)
	return cc.Val(nf, nw), s.ChargeLineMiss(ln, p, addr)
}

// fillLine installs the line with per-word BVN = CVN(var of word).
func (s *System) fillLine(ln *memsys.Lane, cc *cache.Cache, tr *cache.Tracker, addr prog.Word) (cache.Frame, int) {
	nf, nw := s.FillLane(ln, cc, tr, addr, 0, 0)
	base := cc.LineBase(addr)
	for i := 0; i < cc.LineWords(); i++ {
		cc.SetTT(nf, i, s.cvnAt(base+prog.Word(i)))
	}
	return nf, nw
}

// refreshLine refetches a present line; every word's BVN becomes the
// current version of its variable. Fill data comes through the lane so
// the processor sees its own buffered same-epoch stores.
func (s *System) refreshLine(ln *memsys.Lane, f cache.Frame, w int, addr prog.Word, cc *cache.Cache, tr *cache.Tracker) {
	base := cc.LineBase(addr)
	for i := 0; i < cc.LineWords(); i++ {
		a := base + prog.Word(i)
		cc.SetVal(f, i, ln.Value(a))
		cc.SetTT(f, i, s.cvnAt(a))
		tr.NoteCached(a)
	}
	cc.MarkUsed(f, w)
	cc.Touch(f)
}

// Write implements memsys.System: write-through; the written word's BVN
// becomes CVN+1 (the version this epoch is producing). Regular stores
// buffer in the lane until the barrier; critical-section stores write
// through eagerly (they only occur in sequential epochs).
func (s *System) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	ln := s.LaneFor(p)
	if crit {
		ln.WriteThrough(addr, val, p, s.Epoch)
		s.StoreCritical(ln, p, addr)
		return 0
	}
	return s.StoreLane(ln, p, addr, val, s.cvnAt(addr)+1, false, false)
}

// EpochBoundary implements memsys.System. The simulator's FlushEpoch has
// already merged the previous epoch's lanes when this runs.
func (s *System) EpochBoundary(epoch int64) int64 {
	s.Epoch = epoch
	s.SetLaneEpoch(epoch)
	s.FlushWriteBuffers()
	return 0
}

// InitReadCursor implements memsys.System. The version cut is the
// stream variable's CVN, captured once: CVNs are frozen mid-epoch and
// the affine entry guards keep every stream address inside one variable.
// Time-Reads take the same path as regular reads (VC ignores windows).
func (s *System) InitReadCursor(c *memsys.ReadCursor, p int, kind memsys.ReadKind, window int, addr0 prog.Word) {
	if kind == memsys.ReadBypass {
		s.InitUncachedReadCursor(c, s, p, kind, window)
		return
	}
	s.InitCachedReadCursor(c, s, p, kind, window, s.cvnAt(addr0), false, "vc hit")
}

// InitWriteCursor implements memsys.System. The written BVN is
// CVN(stream variable)+1, constant across the stream.
func (s *System) InitWriteCursor(c *memsys.WriteCursor, p int, addr0 prog.Word) {
	s.InitStoreCursor(c, s, p, s.cvnAt(addr0)+1, false, false)
}

// CVN exposes a variable's current version (tests).
func (s *System) CVN(name string) int64 {
	if id, ok := s.byName[name]; ok {
		return s.cvn[id]
	}
	return -1
}
