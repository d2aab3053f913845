package memsys

// The write-through toolkit: the per-processor cache sets of the caching
// schemes, and the reference steps SC, TPI, VC and Tardis share. In the
// paper SC and TPI are one write-through, write-validate cache; TPI
// stamps each word's timetag slot with an epoch, VC with a variable
// version, Tardis with a write timestamp. A scheme supplies its hit
// predicate and the timetag values; Core supplies everything else.

import (
	"repro/internal/cache"
	"repro/internal/prog"
	"repro/internal/stats"
)

// EnableCaches gives every processor a cache and a miss tracker, plus a
// write buffer when writeBuffers is set (the write-through schemes; the
// HW directory's write-back caches have none). ProcState builds each
// processor's set on its first reference, so a large-P run whose
// processors mostly stay idle pays nothing for them. Call once, at
// construction.
func (c *Core) EnableCaches(writeBuffers bool) {
	c.caches = make([]procCaches, c.Cfg.Procs)
	c.writeBuffers = writeBuffers
}

// procCaches is one processor's cache set; cc is nil until ProcState
// builds it, wb stays nil without write buffers.
type procCaches struct {
	cc *cache.Cache
	tr *cache.Tracker
	wb *cache.WriteBuffer
}

// ProcState returns p's cache and tracker, building the set on first
// use. Safe under host parallelism: each processor is owned by exactly
// one worker, so concurrent first touches write distinct slice elements.
func (c *Core) ProcState(p int) (*cache.Cache, *cache.Tracker) {
	pc := &c.caches[p]
	if pc.cc == nil {
		c.build(pc)
	}
	return pc.cc, pc.tr
}

// build is ProcState's first-use step, kept out of line so ProcState
// inlines.
func (c *Core) build(pc *procCaches) {
	pc.cc = cache.New(c.Cfg.CacheWords, c.Cfg.LineWords, c.Cfg.Assoc)
	pc.tr = cache.NewTracker(c.Memory.Size())
	if c.writeBuffers {
		pc.wb = cache.NewWriteBuffer(c.Cfg.WriteBufferCache)
	}
}

// CacheOf returns p's cache and tracker without building them: nil when
// p has referenced nothing yet, so it holds no copy of anything.
func (c *Core) CacheOf(p int) (*cache.Cache, *cache.Tracker) {
	pc := &c.caches[p]
	return pc.cc, pc.tr
}

// Caches exposes the per-processor caches for white-box tests,
// materializing any a lazy run has not built yet; nil for a scheme
// without caches.
func (c *Core) Caches() []*cache.Cache {
	var ccs []*cache.Cache
	for p := range c.caches {
		cc, _ := c.ProcState(p)
		ccs = append(ccs, cc)
	}
	return ccs
}

// FlushWriteBuffers drains every write buffer at an epoch barrier.
func (c *Core) FlushWriteBuffers() {
	for i := range c.caches {
		if wb := c.caches[i].wb; wb != nil {
			wb.Flush()
		}
	}
}

// releaseCaches returns the cache sets to their pools. The table is
// nilled so any use after release fails loudly instead of corrupting a
// pooled cache.
func (c *Core) releaseCaches() {
	for _, pc := range c.caches {
		if pc.cc == nil {
			continue
		}
		cache.Release(pc.cc)
		cache.ReleaseTracker(pc.tr)
		if pc.wb != nil {
			cache.ReleaseWriteBuffer(pc.wb)
		}
	}
	c.caches = nil
}

// replaceFrame returns the frame addr's line will occupy in cc. A valid
// occupant is replaced: the tracker records the loss of each of its
// valid words, its write-back-dirty words (DirtyW, set only under
// TPIWriteBack) are charged as write traffic, and the frame is
// invalidated. Line-grain dirty data (the HW directory's and Tardis's
// Dirty lines) is the caller's to charge first.
func replaceFrame(ln *Lane, cc *cache.Cache, tr *cache.Tracker, addr prog.Word) *cache.Line {
	v := cc.Victim(addr)
	if v.State == cache.Invalid {
		return v
	}
	tr.NoteLineLost(v, prog.Word(v.Tag*int64(cc.LineWords())), cache.LostReplaced)
	var dirty int64
	for _, d := range v.DirtyW {
		if d {
			dirty++
		}
	}
	if dirty > 0 {
		ln.St.WriteTrafficWords += dirty
		ln.Inject(dirty)
	}
	v.InvalidateLine()
	return v
}

// storeWord is the write-validate update of word w of l, a line present
// in cc: the value, the timetag (promote raises an older tag to wtt,
// TPI's rule; otherwise wtt is assigned), the used bit and LRU, the
// tracker's residency, and under writeBack the dirty bit. StoreLane and
// the StreamCached write cursor share it. The promote test also
// validates an invalid word: its tag, TTInvalid (-1), is below TPI's
// store tag, E or E-1, or equal to it at epoch 0.
func storeWord(cc *cache.Cache, tr *cache.Tracker, l *cache.Line, w int, addr prog.Word, val float64, wtt int64, promote, writeBack bool) {
	l.Vals[w] = val
	if !promote || l.TT[w] < wtt {
		l.TT[w] = wtt
	}
	l.Used[w] = true
	cc.Touch(l)
	tr.NoteCached(addr)
	if writeBack {
		l.DirtyW[w] = true
	}
}

// StoreLane performs processor p's non-critical write-validate store:
// the buffered memory write, the hit or miss count (classified before
// the tracker records the new residency), the word update in a present
// line or in a frame claimed by replacement (no fetch-on-write), and
// then either the write-buffer drain with its coalescing or, under
// writeBack, the dirty mark. wtt and promote are the timetag rule (see
// storeWord). It returns the processor stall: the remote store latency
// under sequential consistency, 0 otherwise.
func (c *Core) StoreLane(ln *Lane, p int, addr prog.Word, val float64, wtt int64, promote, writeBack bool) int64 {
	ln.St.Writes++
	ln.Write(addr, val, p, c.Epoch)
	cc, tr := c.ProcState(p)
	l, w, ok := cc.Lookup(addr)
	hit := ok && l.ValidWord(w)
	if hit {
		ln.St.WriteHits++
	} else {
		ln.St.WriteMisses[c.ClassifyMissLane(ln, tr, addr)]++
	}
	if !ok {
		l = replaceFrame(ln, cc, tr, addr)
		l.Tag, _ = cc.Split(addr)
		l.State = cache.Shared
	}
	storeWord(cc, tr, l, w, addr, val, wtt, promote, writeBack)
	if writeBack {
		// The word drains in the barrier's flush burst; memory values
		// stay authoritative, only traffic and stalls follow the policy.
		return 0
	}
	if c.caches[p].wb.Write(addr) {
		ln.St.WriteTrafficWords++
		ln.Inject(1)
	} else {
		ln.St.WritesCoalesced++
	}
	if c.Cfg.SeqConsistency {
		// The write-through must be globally performed before the
		// processor proceeds: the whole remote store latency is exposed.
		lat := c.WordMissLatencyFor(p, addr)
		if !hit {
			ln.St.WriteMissLatencySum += lat
		}
		return lat
	}
	return 0
}

// StoreCritical performs the cache side of processor p's critical-section
// store; the memory write (Lane.Write, or Lane.WriteThrough for the
// always-buffered schemes) stays at the call site. The store is written
// through uncoalesced and counted as a bypass miss, and p's own copy of
// the word self-invalidates, so no cache keeps a copy claiming epoch
// freshness for lock-protected data.
func (c *Core) StoreCritical(ln *Lane, p int, addr prog.Word) {
	ln.St.Writes++
	ln.St.WriteMisses[stats.MissBypass]++
	cc, tr := c.ProcState(p)
	if l, w, ok := cc.Lookup(addr); ok && l.ValidWord(w) {
		tr.NoteLost(addr, cache.LostInvalTrue, l.TT[w])
		l.InvalidateWord(w)
	}
	ln.St.WriteTrafficWords++
	ln.Inject(1)
}

// BypassRead fetches one word for processor p from memory without
// validating the cache, counted as a bypass miss. A valid cached copy of
// the word is refreshed in place (value only), so later covered reads of
// the same task see current data.
func (c *Core) BypassRead(ln *Lane, p int, addr prog.Word) (float64, int64) {
	v := ln.Value(addr)
	cc, _ := c.ProcState(p)
	if l, w, ok := cc.Lookup(addr); ok && l.ValidWord(w) {
		l.Vals[w] = v
	}
	ln.St.ReadMisses[stats.MissBypass]++
	ln.St.ReadTrafficWords++
	ln.Inject(2)
	lat := c.WordMissLatencyFor(p, addr)
	ln.St.MissLatencySum += lat
	return v, lat
}

// ChargeLineMiss accounts the traffic, network load and latency of a
// line fetch by processor p from addr's home node, and returns the stall.
func (c *Core) ChargeLineMiss(ln *Lane, p int, addr prog.Word) int64 {
	ln.St.ReadTrafficWords += int64(c.Cfg.LineWords)
	ln.Inject(int64(c.Cfg.LineWords) + 1)
	lat := c.LineMissLatencyFor(p, addr)
	ln.St.MissLatencySum += lat
	return lat
}
