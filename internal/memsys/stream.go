package memsys

// Stream cursors: the memory-system half of the affine reference-stream
// fast path (the simulator half lives in internal/sim/stream.go).
//
// The simulator recognizes innermost serial loops whose bodies are
// straight-line assignments over affine array references and executes
// them as precomputed (base, stride, count) streams. Each stream drives
// one cursor, initialized once per loop entry by the scheme
// (System.InitReadCursor / InitWriteCursor) and then invoked once per
// element with a precomputed address. A cursor inlines the scheme's
// common case — the cache hit for SC/TPI regular and Time-Reads, the
// uncached word fetch for BASE — and delegates everything else (fills,
// refreshes, evictions, prefetch, bypass reads) to the scheme's own
// scalar Read/Write, so every counter, timetag transition, latency
// charge, and traffic injection is bit-identical to the scalar path by
// construction.
//
// Soundness of the inlined hit: the cursor caches the frame of the
// previously-touched line and revalidates it on every access
// (cache.Holds: the tag match cache.Lookup uses; an invalid frame's tag
// is empty), so any eviction, refill, or invalidation between two
// accesses is observed. The hit predicate (word valid, timetag within
// the Time-Read window cut) is the scalar hit predicate verbatim; when
// it fails the
// cursor falls back to the scheme's scalar path, which re-runs the full
// decision from scratch. Coherence state only changes at epoch
// boundaries, and cursors never outlive the loop entry that initialized
// them, so the captured Lane/Epoch/window-cut stay valid for the
// cursor's whole life (loops execute inside one task of one epoch).

import (
	"repro/internal/cache"
	"repro/internal/prog"
	"repro/internal/stats"
)

// StreamMode selects how a cursor performs each reference.
type StreamMode uint8

const (
	// StreamCached inlines the cache-hit path and falls back to the
	// scheme's scalar Read/Write on anything else (SC/TPI).
	StreamCached StreamMode = iota
	// StreamUncached routes every reference through the scheme's scalar
	// path: reads (bypass reads, Oracle reads) always count a bypass
	// miss; for writes the class is recovered by counter diffing (Tardis
	// writes, whose per-line lease state rules out a stream-constant WTT,
	// and Oracle writes).
	StreamUncached
	// StreamBase inlines BASE's uncached remote word access.
	StreamBase
	// StreamHW inlines the HW directory's exclusive-hit write path and
	// falls back to the scalar Write for shared hits and misses (which
	// involve the directory). Reads use StreamCached: an HW read hit is
	// any valid word.
	StreamHW
	// StreamTwoLevel puts the on-chip L1 filter in front of an inner
	// cursor mode (two-level TPI): regular reads hit the L1, everything
	// else invalidates the L1 word and takes the inner (L2) path.
	StreamTwoLevel
	// StreamTardis inlines the Tardis 2.0 exclusive-hit silent store —
	// valid only while the frozen home table still names this
	// processor — and falls back to the scalar Write for everything else
	// (shared hits need a lease grant and a home action-log entry).
	// Tardis reads use StreamCached: the hit predicate is the uniform
	// lease check TT[w] >= gts.
	StreamTardis
)

// ReadCursor performs one read stream's references.
type ReadCursor struct {
	Mode StreamMode
	Sys  System // scalar fallback target
	Core *Core
	Ln   *Lane
	CC   *cache.Cache
	Proc int
	Kind ReadKind
	// Window is the Time-Read window (passed through to the fallback).
	Window int
	// Cut is the minimum timetag a cached word needs to hit: the
	// Time-Read window bound E-min(w,maxW) for Time-Reads, math.MinInt64
	// for regular reads (any valid word hits).
	Cut int64
	// PromoteTT: a validated hit promotes the word timetag to the epoch
	// (per-word tags only; line-granular tags may not be promoted).
	PromoteTT bool
	Epoch     int64
	HitCycles int64
	HitCtx    string // staleness-oracle context label for hits
	// Fresh is the lane's FreshWords view: non-nil for pass-through
	// lanes, letting the hit path inline the staleness-oracle compare
	// (CheckFresh remains the mismatch/buffered path).
	Fresh []float64

	// Two-level TPI (StreamTwoLevel): the on-chip L1 in front of the
	// inner (L2) path, whose mode the inner scheme's init left in Inner.
	Inner       StreamMode
	L1          *cache.Cache
	L1HitCycles int64
	L2HitCycles int64

	line   cache.Frame // last-touched line; revalidated on every access
	l1line cache.Frame // StreamTwoLevel: last-touched L1 line

	// Batched counters, applied by Flush at stream-loop exit. Stats and
	// network load are only observed at epoch boundaries (the network
	// clock advances at AdvanceTo, between epochs), so deferring the
	// increments is unobservable. The scalar-fallback delegate still
	// updates the lane stats directly, which keeps its counter-diff
	// class recovery self-consistent.
	hits    int64 // StreamCached: pending Reads/ReadHits
	n       int64 // StreamBase: pending Reads/ReadMisses/traffic
	latSum  int64 // StreamBase: pending MissLatencySum
	l1hits  int64 // StreamTwoLevel: pending L1Hits (and Reads/ReadHits)
	l1miss  int64 // StreamTwoLevel: pending L1Misses
	trInval int64 // StreamTwoLevel: pending TimeReadL1Invalidations
}

// Flush applies the cursor's batched counters to the lane. runStream
// calls it once per stream loop, after the last reference.
func (c *ReadCursor) Flush() {
	switch c.Mode {
	case StreamCached:
		st := c.Ln.St
		st.Reads += c.hits
		st.ReadHits += c.hits
		c.hits = 0
	case StreamTwoLevel:
		st := c.Ln.St
		st.L1Hits += c.l1hits
		st.Reads += c.l1hits // an L1 hit counts as a read hit
		st.ReadHits += c.l1hits
		st.L1Misses += c.l1miss
		st.TimeReadL1Invalidations += c.trInval
		st.Reads += c.hits // inner (L2) cursor hits
		st.ReadHits += c.hits
		c.l1hits, c.l1miss, c.trInval, c.hits = 0, 0, 0, 0
	case StreamBase:
		st := c.Ln.St
		st.Reads += c.n
		st.ReadMisses[stats.MissBypass] += c.n
		st.ReadTrafficWords += c.n
		st.MissLatencySum += c.latSum
		c.Ln.Inject(2 * c.n)
		c.n, c.latSum = 0, 0
	}
}

// Read performs one read at addr. It returns the value, the processor
// stall, and the miss class (-1 for a hit), mirroring what the
// simulator's counter-diff recovery would report for the scalar path.
func (c *ReadCursor) Read(addr prog.Word) (float64, int64, int8) {
	switch c.Mode {
	case StreamCached:
		return c.readCached(addr)

	case StreamTwoLevel:
		if c.Kind == ReadRegular {
			l1 := c.L1
			tag, w := l1.Split(addr)
			if (l1.Holds(&c.l1line, tag) || relookup(l1, &c.l1line, addr)) && l1.TT(c.l1line, w) != cache.TTInvalid {
				f := c.l1line
				c.l1hits++
				l1.Touch(f)
				v := l1.Val(f, w)
				if c.Fresh == nil || v != c.Fresh[addr] {
					c.Ln.CheckFresh(addr, v, c.Proc, "tpi2l L1 hit")
				}
				return v, c.L1HitCycles, -1
			}
			c.l1miss++
			v, lat, class := c.readInner(addr)
			if lat == c.HitCycles {
				lat = c.L2HitCycles // the L2 tag+timetag access is slower
			}
			FillWordL1(l1, addr, v)
			c.l1line = cache.Frame{} // the fill may have installed or moved the line
			return v, lat, class
		}
		// Time-Read / bypass: the on-chip copy cannot be validated; the
		// compiled sequence invalidates it and re-reads through the L2.
		if f, w, ok := c.L1.Lookup(addr); ok && c.L1.ValidWord(f, w) {
			c.L1.InvalidateWord(f, w)
			c.trInval++
		}
		v, lat, class := c.readInner(addr)
		if lat == c.HitCycles {
			lat = c.L2HitCycles
		}
		if c.Kind == ReadTime {
			FillWordL1(c.L1, addr, v)
			c.l1line = cache.Frame{}
		}
		return v, lat, class

	case StreamBase:
		c.n++
		lat := c.Core.WordMissLatencyFor(c.Proc, addr)
		c.latSum += lat
		return c.Ln.Value(addr), lat, int8(stats.MissBypass)

	default: // StreamUncached
		v, stall := c.Sys.Read(c.Proc, addr, c.Kind, c.Window)
		return v, stall, int8(stats.MissBypass)
	}
}

// readInner runs the inner (L2) path of a two-level cursor: the mode the
// inner scheme's InitReadCursor selected before the wrapper re-tagged the
// cursor StreamTwoLevel.
func (c *ReadCursor) readInner(addr prog.Word) (float64, int64, int8) {
	if c.Inner == StreamCached {
		return c.readCached(addr)
	}
	// StreamUncached (bypass reads).
	v, stall := c.Sys.Read(c.Proc, addr, c.Kind, c.Window)
	return v, stall, int8(stats.MissBypass)
}

// readCached is the StreamCached reference: the inlined revalidated-hit
// path with scalar fallback.
func (c *ReadCursor) readCached(addr prog.Word) (float64, int64, int8) {
	cc := c.CC
	tag, w := cc.Split(addr)
	if cc.Holds(&c.line, tag) || relookup(cc, &c.line, addr) {
		f := c.line
		if tt := cc.TT(f, w); tt != cache.TTInvalid && tt >= c.Cut {
			c.hits++
			if c.PromoteTT {
				cc.SetTT(f, w, c.Epoch)
			}
			cc.MarkUsed(f, w)
			cc.Touch(f)
			v := cc.Val(f, w)
			if c.Fresh == nil || v != c.Fresh[addr] {
				// Buffered lane, or a genuine staleness-oracle failure:
				// CheckFresh re-runs the compare against the value this
				// processor must see and panics with the full diagnostic.
				c.Ln.CheckFresh(addr, v, c.Proc, c.HitCtx)
			}
			return v, c.HitCycles, -1
		}
	}
	// Anything but a clean hit — absent line, word-grain hole,
	// window failure — takes the scheme's full scalar path (refresh,
	// fill, eviction, prefetch, classification), with the class
	// recovered from the lane counters as for the scalar simulator.
	v, stall, class := ReadClassified(c.Sys, c.Ln.St, c.Proc, addr, c.Kind, c.Window)
	c.line = cache.Frame{} // the fill may have replaced or moved the line
	return v, stall, class
}

// FillWordL1 installs one word in a two-level on-chip L1 (word-grain
// validate; no extra memory traffic — the data just came through the L2
// path). Shared by the scalar two-level Read path and StreamTwoLevel
// cursors.
func FillWordL1(l1 *cache.Cache, addr prog.Word, v float64) {
	if f, w, ok := l1.Lookup(addr); ok {
		l1.SetVal(f, w, v)
		l1.SetTT(f, w, 0) // L1 carries no timetags; 0 marks "valid"
		l1.Touch(f)
		return
	}
	vic := l1.Victim(addr)
	if l1.State(vic) != cache.Invalid {
		l1.InvalidateLine(vic) // clean write-through L1: silent drop
	}
	tag, w := l1.Split(addr)
	l1.Install(vic, tag, cache.Shared)
	l1.SetVal(vic, w, v)
	l1.SetTT(vic, w, 0)
	l1.Touch(vic)
}

// WriteCursor performs one write stream's references.
type WriteCursor struct {
	Mode StreamMode
	Sys  System
	Core *Core
	Ln   *Lane
	CC   *cache.Cache
	Tr   *cache.Tracker
	WB   *cache.WriteBuffer
	Proc int
	// Epoch stamps the memory write; WTT stamps the cache word timetag
	// (the epoch, or epoch-1 under line-granular timetags).
	Epoch, WTT int64
	// PromoteTT selects TPI's promote-if-older tag rule; false is SC's
	// unconditional assignment.
	PromoteTT bool
	// WriteBack marks dirty instead of writing through (TPIWriteBack).
	WriteBack bool
	// SeqC exposes the store latency (sequential consistency).
	SeqC bool

	// Two-level TPI (StreamTwoLevel): the on-chip L1 updated in front of
	// the inner cursor mode.
	Inner StreamMode
	L1    *cache.Cache

	// Tardis (StreamTardis): the home table, indexed by global line
	// number (the cache tag); word 0 of a line holds its exclusive owner
	// + 1 in the low 32 bits, 0 for none. A silent store is sound only
	// while the home still names this processor the owner; the table is
	// frozen mid-epoch (replay happens at the barrier), so the check is
	// deterministic.
	Home *LineTable

	line   cache.Frame
	l1line cache.Frame

	// Batched counters, applied by Flush at stream-loop exit (same
	// argument as ReadCursor's: stats and network load are only observed
	// at epoch boundaries). Miss classification and latency stay
	// per-reference.
	n          int64 // pending Writes
	hits       int64 // StreamCached: pending WriteHits
	traffic    int64 // pending WriteTrafficWords (and Inject words)
	coalesced  int64 // StreamCached: pending WritesCoalesced
	missLatSum int64 // pending WriteMissLatencySum
}

// Flush applies the cursor's batched counters to the lane.
func (c *WriteCursor) Flush() {
	st := c.Ln.St
	st.Writes += c.n
	if c.Mode == StreamBase {
		st.WriteMisses[stats.MissBypass] += c.n
	}
	st.WriteHits += c.hits
	st.WriteTrafficWords += c.traffic
	st.WritesCoalesced += c.coalesced
	st.WriteMissLatencySum += c.missLatSum
	c.Ln.Inject(c.traffic)
	c.n, c.hits, c.traffic, c.coalesced, c.missLatSum = 0, 0, 0, 0, 0
}

// Write performs one non-critical write of val to addr. It returns the
// processor stall and the miss class (-1 for a write hit).
func (c *WriteCursor) Write(addr prog.Word, val float64) (int64, int8) {
	switch c.Mode {
	case StreamBase:
		c.n++
		c.traffic++
		c.Ln.Write(addr, val, c.Proc, c.Epoch)
		if c.SeqC {
			lat := c.Core.WordMissLatencyFor(c.Proc, addr)
			c.missLatSum += lat
			return lat, int8(stats.MissBypass)
		}
		return 0, int8(stats.MissBypass)

	case StreamHW:
		// Inline the directory's exclusive-hit store: silent (no
		// directory interaction mid-epoch), so only the own-cache word
		// update and the buffered memory shadow happen here. Shared
		// hits (upgrades) and misses involve the directory action log —
		// scalar path.
		tag, w := c.CC.Split(addr)
		if cc, f := c.CC, &c.line; (cc.Holds(f, tag) || relookup(cc, f, addr)) && c.exclusiveValid(*f, w) {
			c.silentStore(*f, w, addr, val)
			return 0, -1
		}
		stall, class := c.delegate(addr, val)
		c.line = cache.Frame{} // an upgrade/fill may have moved or replaced the line
		return stall, class

	case StreamTwoLevel:
		// Write-through both levels: update a valid on-chip word (stream
		// writes are never critical), then run the inner (L2) path.
		l1 := c.L1
		tag, w := l1.Split(addr)
		if (l1.Holds(&c.l1line, tag) || relookup(l1, &c.l1line, addr)) && l1.TT(c.l1line, w) != cache.TTInvalid {
			l1.SetVal(c.l1line, w, val)
		}
		return c.writeCached(addr, val)

	case StreamTardis:
		// Inline the exclusive-hit silent store: no home message while
		// this processor is still the frozen owner, so only the own-cache
		// word update and the buffered memory shadow happen here. The
		// word's lease timetag is NOT extended — exactly what the scalar
		// silent-store path does. Shared hits, demotions, and misses need
		// the lease grant and the home action log — scalar path.
		tag, w := c.CC.Split(addr)
		if cc, f := c.CC, &c.line; (cc.Holds(f, tag) || relookup(cc, f, addr)) && c.exclusiveValid(*f, w) &&
			uint32(c.Home.Row(tag)[0]) == uint32(c.Proc+1) {
			c.silentStore(*f, w, addr, val)
			return 0, -1
		}
		stall, class := c.delegate(addr, val)
		c.line = cache.Frame{} // a grant/fill may have moved or replaced the line
		return stall, class

	case StreamUncached:
		// Scalar-delegate mode: every store runs the scheme's full Write
		// (schemes whose written-word timetag depends on per-line home
		// state cannot capture a single stream-constant WTT; the Oracle
		// has no cache to inline).
		return c.delegate(addr, val)
	}
	return c.writeCached(addr, val)
}

// relookup leaves in *last the frame of cc holding addr's line and
// reports whether there is one. The cursors call it when their
// remembered frame no longer Holds the line:
// cc.Holds(last, tag) || relookup(cc, last, addr) is the revalidated
// lookup, written out at each site so the common case stays inline.
func relookup(cc *cache.Cache, last *cache.Frame, addr prog.Word) bool {
	f, _, ok := cc.Lookup(addr)
	*last = f
	return ok
}

// exclusiveValid reports whether f is an Exclusive line whose word w is
// valid: the store the HW and Tardis cursors inline.
func (c *WriteCursor) exclusiveValid(f cache.Frame, w int) bool {
	return c.CC.State(f) == cache.Exclusive && c.CC.TT(f, w) != cache.TTInvalid
}

// silentStore is the inlined exclusive-hit store: the buffered memory
// shadow and the own-cache word update, with no coherence action.
func (c *WriteCursor) silentStore(f cache.Frame, w int, addr prog.Word, val float64) {
	c.n++
	c.hits++
	c.Ln.Write(addr, val, c.Proc, c.Epoch)
	c.CC.SetVal(f, w, val)
	c.CC.MarkUsed(f, w)
	c.CC.SetDirty(f, true)
	c.CC.Touch(f)
}

// delegate routes one store through the scheme's scalar Write, with the
// class recovered from the lane counters.
func (c *WriteCursor) delegate(addr prog.Word, val float64) (int64, int8) {
	return WriteClassified(c.Sys, c.Ln.St, c.Proc, addr, val, false)
}

// InitCachedReadCursor prepares rc for processor p's StreamCached reads:
// a word hits when it is valid and its timetag is at least cut, promote
// raises a hit word's timetag to the epoch, and hitCtx labels the hit's
// staleness-oracle check. sys is the scheme, the scalar fallback target.
func (c *Core) InitCachedReadCursor(rc *ReadCursor, sys System, p int, kind ReadKind, window int, cut int64, promote bool, hitCtx string) {
	ln := c.LaneFor(p)
	cc, _ := c.ProcState(p)
	*rc = ReadCursor{
		Mode: StreamCached, Sys: sys, Core: c, Ln: ln, CC: cc,
		Proc: p, Kind: kind, Window: window, Cut: cut, PromoteTT: promote,
		Epoch: c.Epoch, HitCycles: c.Cfg.HitCycles, HitCtx: hitCtx,
		Fresh: ln.FreshWords(),
	}
}

// InitUncachedReadCursor prepares rc to route every read of processor p
// through sys's scalar Read, each reported as a bypass miss (bypass
// reads; the Oracle).
func (c *Core) InitUncachedReadCursor(rc *ReadCursor, sys System, p int, kind ReadKind, window int) {
	*rc = ReadCursor{Mode: StreamUncached, Sys: sys, Core: c, Ln: c.LaneFor(p), Proc: p, Kind: kind, Window: window}
}

// InitStoreCursor prepares wc for processor p's StreamCached stores,
// with StoreLane's timetag rule (wtt, promote) and policy (writeBack);
// sys is the scheme, the scalar target for stores to absent lines.
func (c *Core) InitStoreCursor(wc *WriteCursor, sys System, p int, wtt int64, promote, writeBack bool) {
	cc, tr := c.ProcState(p)
	*wc = WriteCursor{
		Mode: StreamCached, Sys: sys, Core: c, Ln: c.LaneFor(p),
		CC: cc, Tr: tr, WB: c.caches[p].wb,
		Proc: p, Epoch: c.Epoch, WTT: wtt, PromoteTT: promote,
		WriteBack: writeBack, SeqC: c.Cfg.SeqConsistency,
	}
}

// writeCached is the StreamCached store: the inlined present-line write
// (hit or word-grain allocate) with scalar fallback for absent lines,
// which need the scheme's write-validate frame allocation and eviction
// accounting.
func (c *WriteCursor) writeCached(addr prog.Word, val float64) (int64, int8) {
	tag, w := c.CC.Split(addr)
	if cc := c.CC; !cc.Holds(&c.line, tag) && !relookup(cc, &c.line, addr) {
		// The allocation installs a line; the next access finds it.
		return c.delegate(addr, val)
	}
	f := c.line
	ln := c.Ln
	c.n++
	ln.Write(addr, val, c.Proc, c.Epoch)
	hit := c.CC.TT(f, w) != cache.TTInvalid
	class := int8(-1)
	if hit {
		c.hits++
	} else {
		// Classify before storeWord records the new residency.
		cls := c.Core.ClassifyMissLane(ln, c.Tr, addr)
		ln.St.WriteMisses[cls]++
		class = int8(cls)
	}
	storeWord(c.CC, c.Tr, f, w, addr, val, c.WTT, c.PromoteTT, c.WriteBack)
	if c.WriteBack {
		return 0, class
	}
	if c.WB.Write(addr) {
		c.traffic++
	} else {
		c.coalesced++
	}
	if c.SeqC {
		lat := c.Core.WordMissLatencyFor(c.Proc, addr)
		if !hit {
			c.missLatSum += lat
		}
		return lat, class
	}
	return 0, class
}
