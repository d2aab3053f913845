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
	caches   []*cache.Cache
	trackers []*cache.Tracker
	wbufs    []*cache.WriteBuffer

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

	s.caches = make([]*cache.Cache, cfg.Procs)
	s.trackers = make([]*cache.Tracker, cfg.Procs)
	s.wbufs = make([]*cache.WriteBuffer, cfg.Procs)
	s.EnableAlwaysBuffered()
	s.OnRelease(s)
	return s
}

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

// Name implements memsys.System.
func (s *System) Name() string { return "VC" }

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
	cc, tr := s.procState(p)

	if kind == memsys.ReadBypass {
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

	line, w, present := cc.Lookup(addr)
	if present && line.ValidWord(w) {
		if line.TT[w] >= s.cvnAt(addr) {
			ln.St.ReadHits++
			line.Used[w] = true
			cc.Touch(line)
			ln.CheckFresh(addr, line.Vals[w], p, "vc hit")
			return line.Vals[w], s.Cfg.HitCycles
		}
		// Version failure: did the data actually change?
		if line.Vals[w] != ln.Value(addr) {
			ln.St.ReadMisses[stats.MissTrueSharing]++
		} else {
			ln.St.ReadMisses[stats.MissConservative]++
		}
		s.refreshLine(ln, line, w, addr, cc, tr)
		return line.Vals[w], s.chargeLineMiss(ln, p, addr)
	}

	ln.St.ReadMisses[s.ClassifyMissLane(ln, tr, addr)]++
	if present {
		s.refreshLine(ln, line, w, addr, cc, tr)
		return line.Vals[w], s.chargeLineMiss(ln, p, addr)
	}
	nl, nw := s.fillLine(ln, cc, tr, addr)
	return nl.Vals[nw], s.chargeLineMiss(ln, p, addr)
}

// fillLine installs the line with per-word BVN = CVN(var of word).
func (s *System) fillLine(ln *memsys.Lane, cc *cache.Cache, tr *cache.Tracker, addr prog.Word) (*cache.Line, int) {
	nl, nw := s.FillLane(ln, cc, tr, addr, 0, 0)
	base := cc.LineBase(addr)
	for i := 0; i < cc.LineWords(); i++ {
		nl.TT[i] = s.cvnAt(base + prog.Word(i))
	}
	return nl, nw
}

// refreshLine refetches a present line; every word's BVN becomes the
// current version of its variable. Fill data comes through the lane so
// the processor sees its own buffered same-epoch stores.
func (s *System) refreshLine(ln *memsys.Lane, line *cache.Line, w int, addr prog.Word, cc *cache.Cache, tr *cache.Tracker) {
	base := cc.LineBase(addr)
	for i := 0; i < cc.LineWords(); i++ {
		a := base + prog.Word(i)
		line.Vals[i] = ln.Value(a)
		line.TT[i] = s.cvnAt(a)
		tr.NoteCached(a)
	}
	line.Used[w] = true
	cc.Touch(line)
}

func (s *System) chargeLineMiss(ln *memsys.Lane, p int, addr prog.Word) int64 {
	ln.St.ReadTrafficWords += int64(s.Cfg.LineWords)
	ln.Inject(int64(s.Cfg.LineWords) + 1)
	lat := s.LineMissLatencyFor(p, addr)
	ln.St.MissLatencySum += lat
	return lat
}

// Write implements memsys.System: write-through; the written word's BVN
// becomes CVN+1 (the version this epoch is producing). Regular stores
// buffer in the lane until the barrier; critical-section stores write
// through eagerly (they only occur in sequential epochs).
func (s *System) Write(p int, addr prog.Word, val float64, crit bool) int64 {
	ln := s.LaneFor(p)
	ln.St.Writes++
	cc, tr := s.procState(p)
	if crit {
		ln.WriteThrough(addr, val, p, s.Epoch)
		ln.St.WriteMisses[stats.MissBypass]++
		if line, w, ok := cc.Lookup(addr); ok && line.ValidWord(w) {
			tr.NoteLost(addr, cache.LostInvalTrue, line.TT[w])
			line.InvalidateWord(w)
		}
		ln.St.WriteTrafficWords++
		ln.Inject(1)
		return 0
	}
	ln.Write(addr, val, p, s.Epoch)
	bvn := s.cvnAt(addr) + 1
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
		line.TT[w] = bvn
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
		v.TT[w] = bvn
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

// EpochBoundary implements memsys.System. The simulator's FlushEpoch has
// already merged the previous epoch's lanes when this runs.
func (s *System) EpochBoundary(epoch int64) int64 {
	s.Epoch = epoch
	s.SetLaneEpoch(epoch)
	for _, wb := range s.wbufs {
		if wb != nil {
			wb.Flush()
		}
	}
	return 0
}

// InitReadCursor implements memsys.System. The version cut is the
// stream variable's CVN, captured once: CVNs are frozen mid-epoch and
// the affine entry guards keep every stream address inside one variable.
// Time-Reads take the same path as regular reads (VC ignores windows).
func (s *System) InitReadCursor(c *memsys.ReadCursor, p int, kind memsys.ReadKind, window int, addr0 prog.Word) {
	ln := s.LaneFor(p)
	if kind == memsys.ReadBypass {
		*c = memsys.ReadCursor{
			Mode: memsys.StreamUncached,
			Sys:  s, Core: s.Core, Ln: ln, Proc: p,
			Kind: kind, Window: window,
		}
		return
	}
	cc, _ := s.procState(p)
	*c = memsys.ReadCursor{
		Mode: memsys.StreamCached,
		Sys:  s, Core: s.Core, Ln: ln,
		CC: cc, Proc: p,
		Kind: kind, Window: window,
		Cut:       s.cvnAt(addr0),
		PromoteTT: false,
		Epoch:     s.Epoch,
		HitCycles: s.Cfg.HitCycles,
		HitCtx:    "vc hit",
		Fresh:     ln.FreshWords(),
	}
}

// InitWriteCursor implements memsys.System. The written BVN is
// CVN(stream variable)+1, constant across the stream.
func (s *System) InitWriteCursor(c *memsys.WriteCursor, p int, addr0 prog.Word) {
	cc, tr := s.procState(p)
	*c = memsys.WriteCursor{
		Mode: memsys.StreamCached,
		Sys:  s, Core: s.Core, Ln: s.LaneFor(p),
		CC: cc, Tr: tr, WB: s.wbufs[p],
		Proc:      p,
		Epoch:     s.Epoch,
		WTT:       s.cvnAt(addr0) + 1,
		PromoteTT: false,
		SeqC:      s.Cfg.SeqConsistency,
	}
}

// CVN exposes a variable's current version (tests).
func (s *System) CVN(name string) int64 {
	if id, ok := s.byName[name]; ok {
		return s.cvn[id]
	}
	return -1
}
