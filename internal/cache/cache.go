// Package cache implements the per-processor data cache used by all
// coherence schemes: set-associative (direct-mapped by default) with
// multi-word lines, per-word validity, per-word timetags for the TPI
// scheme, MSI state and dirty bits for the directory scheme, and per-word
// used-since-fill bits for Tullsen–Eggers false-sharing classification.
//
// The cache stores real data values; the simulator reads through it, so
// stale data — if a scheme ever allowed it — would visibly corrupt the
// computation. That is intentional: it is what makes the staleness oracle
// and the sequential-equivalence property tests meaningful.
package cache

import (
	"math/bits"
	"sync"

	"repro/internal/prog"
)

// State is the MSI line state used by the directory scheme. Write-through
// schemes only use Invalid and Shared.
type State uint8

const (
	// Invalid means the line holds no valid data.
	Invalid State = iota
	// Shared means a clean copy readable by this processor.
	Shared
	// Exclusive means this processor owns the only (possibly dirty) copy.
	Exclusive
)

// TTInvalid marks an invalid word (no valid data in that word slot).
const TTInvalid = int64(-1)

// Line is one cache line frame.
type Line struct {
	Tag   int64 // line address (word address / line size); -1 when empty
	State State
	Dirty bool
	Vals  []float64
	// TT is the per-word timetag: the epoch at which the word was last
	// written, filled, or validated by this processor. TTInvalid marks an
	// invalid word.
	TT []int64
	// Used marks words accessed by the local processor since the fill
	// (for false-sharing classification).
	Used []bool
	// DirtyW marks words written but not yet flushed to memory under the
	// write-back-at-boundary policy (traffic accounting only; the
	// simulator keeps memory values authoritative).
	DirtyW []bool
	lru    int64
}

// ValidWord reports whether word w of the line holds data.
func (l *Line) ValidWord(w int) bool { return l.State != Invalid && l.TT[w] != TTInvalid }

// InvalidateWord drops one word.
func (l *Line) InvalidateWord(w int) { l.TT[w] = TTInvalid }

// InvalidateLine drops the whole line.
func (l *Line) InvalidateLine() {
	l.State = Invalid
	l.Dirty = false
	l.Tag = -1
	for i := range l.TT {
		l.TT[i] = TTInvalid
		l.Used[i] = false
		l.DirtyW[i] = false
	}
}

// Cache is one processor's data cache.
type Cache struct {
	lineWords int
	// Power-of-two line sizes (the common case; machine.Validate enforces
	// it for simulated configurations) split addresses with a shift and a
	// mask instead of div/mod. pow2 selects the fast path; the general
	// path stays for arbitrary line sizes.
	pow2  bool
	shift uint
	mask  int64
	sets  int
	// setMask selects the set with a mask when the set count is a power
	// of two; it is -1 otherwise (modulo fallback).
	setMask int64
	assoc   int
	lines   []Line // sets * assoc, set-major
	clock   int64
	// touched has one bit per set, set by Victim: every fill goes through
	// Victim first, so a set whose bit is clear still holds only the
	// fresh-construction state. reset, InvalidateAll and ForEachValidLine
	// walk the touched sets alone, in ascending order — the order of a
	// full scan over the set-major line array. Only reset clears it.
	touched []uint64
	// Flat backing arrays behind the per-line subslices (one allocation
	// each; see New). Kept here so a pooled reset can clear them by range.
	vals   []float64
	tt     []int64
	used   []bool
	dirtyW []bool
}

// Caches are the largest allocations a simulated run makes (megabytes of
// line frames and word arrays per processor), and systems are built per
// run, so construction cost — allocation, zeroing, and the GC pressure of
// the line slice headers — dominates short end-to-end runs. New therefore
// draws from a per-geometry pool of released caches and resets them
// instead of allocating. A reset cache is indistinguishable from a fresh
// one in every field, and the reset costs what the previous run touched:
// only the sets Victim marked are restored (Tag -1, State Invalid, LRU
// zeroed, words zeroed with TTInvalid timetags); every other set never
// left the fresh state.
type poolKey struct {
	capacityWords int64
	lineWords     int
	assoc         int
}

var pools sync.Map // poolKey -> *sync.Pool of *Cache

// Release returns a cache to the construction pool. The caller must not
// use it afterwards (core releases a run's system only after the last
// snapshot has been taken).
func Release(c *Cache) {
	key := poolKey{int64(len(c.vals)), c.lineWords, c.assoc}
	p, _ := pools.LoadOrStore(key, &sync.Pool{})
	p.(*sync.Pool).Put(c)
}

// reset restores a pooled cache to the fresh-construction state by
// restoring the touched sets.
func (c *Cache) reset() {
	c.clock = 0
	c.forTouchedSets(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l := &c.lines[i]
			l.Tag = -1
			l.State = Invalid
			l.Dirty = false
			l.lru = 0
		}
		wlo, whi := lo*c.lineWords, hi*c.lineWords
		for i := wlo; i < whi; i++ {
			c.tt[i] = TTInvalid
		}
		clear(c.vals[wlo:whi])
		clear(c.used[wlo:whi])
		clear(c.dirtyW[wlo:whi])
	})
	clear(c.touched)
}

// forTouchedSets calls fn with the line range [lo, hi) of every touched
// set, in ascending set order.
func (c *Cache) forTouchedSets(fn func(lo, hi int)) {
	for wi, left := range c.touched {
		for left != 0 {
			s := wi<<6 + bits.TrailingZeros64(left)
			left &= left - 1
			fn(s*c.assoc, (s+1)*c.assoc)
		}
	}
}

// New builds a cache of capacityWords with the given line size (words)
// and associativity. capacityWords must be a multiple of lineWords*assoc.
// The per-line word arrays are carved out of four shared backing slices,
// so construction costs a handful of allocations rather than four per
// line; a released cache of the same geometry is reused instead of
// allocating at all (systems are built per simulated run).
func New(capacityWords int64, lineWords, assoc int) *Cache {
	if p, ok := pools.Load(poolKey{capacityWords, lineWords, assoc}); ok {
		if c, ok := p.(*sync.Pool).Get().(*Cache); ok {
			c.reset()
			return c
		}
	}
	return build(capacityWords, lineWords, assoc)
}

// build allocates a fresh cache (New without the pool).
func build(capacityWords int64, lineWords, assoc int) *Cache {
	numLines := int(capacityWords) / lineWords
	sets := numLines / assoc
	c := &Cache{
		lineWords: lineWords,
		sets:      sets,
		setMask:   -1,
		assoc:     assoc,
		lines:     make([]Line, numLines),
		touched:   make([]uint64, (sets+63)/64),
	}
	if sets&(sets-1) == 0 {
		c.setMask = int64(sets - 1)
	}
	if lineWords&(lineWords-1) == 0 {
		c.pow2 = true
		c.shift = uint(bits.TrailingZeros(uint(lineWords)))
		c.mask = int64(lineWords - 1)
	}
	words := numLines * lineWords
	vals := make([]float64, words)
	tt := make([]int64, words)
	used := make([]bool, words)
	dirtyW := make([]bool, words)
	for i := range tt {
		tt[i] = TTInvalid
	}
	c.vals, c.tt, c.used, c.dirtyW = vals, tt, used, dirtyW
	for i := range c.lines {
		l := &c.lines[i]
		l.Tag = -1
		lo, hi := i*lineWords, (i+1)*lineWords
		l.Vals = vals[lo:hi:hi]
		l.TT = tt[lo:hi:hi]
		l.Used = used[lo:hi:hi]
		l.DirtyW = dirtyW[lo:hi:hi]
	}
	return c
}

// LineWords returns the line size in words.
func (c *Cache) LineWords() int { return c.lineWords }

// Split decomposes a word address into (line tag, word-in-line).
func (c *Cache) Split(addr prog.Word) (tag int64, word int) {
	if c.pow2 {
		return int64(addr) >> c.shift, int(int64(addr) & c.mask)
	}
	return int64(addr) / int64(c.lineWords), int(int64(addr) % int64(c.lineWords))
}

// LineBase returns the first word address of the line containing addr.
func (c *Cache) LineBase(addr prog.Word) prog.Word {
	if c.pow2 {
		return addr &^ prog.Word(c.mask)
	}
	return addr - prog.Word(int(int64(addr))%c.lineWords)
}

// setIndex maps a line tag to its set: a mask for power-of-two set
// counts (the Split idiom), a modulo otherwise.
func (c *Cache) setIndex(tag int64) int {
	if c.setMask >= 0 {
		return int(tag & c.setMask)
	}
	return int(tag % int64(c.sets))
}

// Lookup finds the line holding addr. It returns (line, word index,
// present); present means the tag matches and the line is not Invalid —
// the word itself may still be invalid (check ValidWord).
func (c *Cache) Lookup(addr prog.Word) (*Line, int, bool) {
	tag, w := c.Split(addr)
	lo := c.setIndex(tag) * c.assoc
	for i := lo; i < lo+c.assoc; i++ {
		if l := &c.lines[i]; l.State != Invalid && l.Tag == tag {
			return l, w, true
		}
	}
	return nil, w, false
}

// Touch refreshes the line's LRU position. Direct-mapped caches (the
// default configuration) skip the bookkeeping: Victim ignores LRU order
// when the set has a single way, so the clock is unobservable.
func (c *Cache) Touch(l *Line) {
	if c.assoc == 1 {
		return
	}
	c.clock++
	l.lru = c.clock
}

// Victim selects the frame to (re)fill for addr: an invalid way if one
// exists, else the LRU way. The returned line may hold a conflicting
// valid line that the caller must evict first. The set is marked
// touched (see Cache.touched).
func (c *Cache) Victim(addr prog.Word) *Line {
	tag, _ := c.Split(addr)
	s := c.setIndex(tag)
	c.touched[s>>6] |= 1 << (uint(s) & 63)
	set := c.lines[s*c.assoc : (s+1)*c.assoc]
	var victim *Line
	for i := range set {
		l := &set[i]
		if l.State == Invalid {
			return l
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// InvalidateAll drops every line (whole-cache flash invalidation).
// It returns the number of valid words dropped.
func (c *Cache) InvalidateAll() int64 {
	var dropped int64
	c.forTouchedSets(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l := &c.lines[i]
			if l.State == Invalid {
				continue
			}
			for w := range l.TT {
				if l.TT[w] != TTInvalid {
					dropped++
				}
			}
			l.InvalidateLine()
		}
	})
	return dropped
}

// ForEachValidLine visits every non-invalid line, in ascending line
// order.
func (c *Cache) ForEachValidLine(fn func(l *Line)) {
	c.forTouchedSets(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if c.lines[i].State != Invalid {
				fn(&c.lines[i])
			}
		}
	})
}

// LostReason records why a processor lost a word it once cached; it feeds
// the miss classifier.
type LostReason uint8

const (
	// LostNone means the word was never cached (cold).
	LostNone LostReason = iota
	// LostReplaced means the word was evicted by a conflicting fill.
	LostReplaced
	// LostInvalTrue means a coherence invalidation where the invalidating
	// write touched a word this processor had used (true sharing).
	LostInvalTrue
	// LostInvalFalse means a coherence invalidation caused by a write to a
	// word this processor had NOT used since the fill (false sharing).
	LostInvalFalse
	// LostReset means a TPI two-phase reset dropped the word.
	LostReset
)

// Tracker records per-word history for one processor: whether the word
// was ever cached, and how it was last lost, for miss classification.
// The seen set is a bitset over the memory extent (one bit per word,
// allocated once), an eighth of the []bool it replaces per processor.
type Tracker struct {
	seen   []uint64
	reason []LostReason
	lostTT []int64
}

// trackerPool recycles released trackers across memory extents: a
// tracker serves any extent up to its capacity, so the pool holds about
// as many trackers as concurrent runs use, however many program sizes
// pass through it. A pool per exact extent would keep each size's
// trackers alive until two GC cycles pass without a run of that size, so
// the fewer collections a workload triggers the more sizes it retains.
var trackerPool sync.Pool

// NewTracker sizes the tracker for the memory extent, reusing a released
// tracker with room for it when one is pooled. Reset is just clearing
// the seen bitset: reason and lostTT are only ever read for words whose
// seen bit is set (ClassifyMissLane checks Seen first), and NoteCached
// rewrites reason before setting the bit.
func NewTracker(memWords int64) *Tracker {
	if t, ok := trackerPool.Get().(*Tracker); ok && int64(cap(t.reason)) >= memWords {
		t.seen = t.seen[:(memWords+63)/64]
		t.reason = t.reason[:memWords]
		t.lostTT = t.lostTT[:memWords]
		clear(t.seen)
		return t
	}
	return &Tracker{
		seen:   make([]uint64, (memWords+63)/64),
		reason: make([]LostReason, memWords),
		lostTT: make([]int64, memWords),
	}
}

// ReleaseTracker returns a tracker to the construction pool; the caller
// must not use it afterwards.
func ReleaseTracker(t *Tracker) { trackerPool.Put(t) }

// NoteCached records that the processor now caches addr.
func (t *Tracker) NoteCached(addr prog.Word) {
	t.seen[addr>>6] |= 1 << (uint(addr) & 63)
	t.reason[addr] = LostNone
}

// NoteLost records losing a word with a reason and the timetag it had.
func (t *Tracker) NoteLost(addr prog.Word, r LostReason, tt int64) {
	if t.Seen(addr) {
		t.reason[addr] = r
		t.lostTT[addr] = tt
	}
}

// NoteLineLost records losing every valid word of line l, whose first
// word is at base, with one reason; it returns how many words were valid.
func (t *Tracker) NoteLineLost(l *Line, base prog.Word, r LostReason) int64 {
	var n int64
	for i, tt := range l.TT {
		if tt != TTInvalid {
			t.NoteLost(base+prog.Word(i), r, tt)
			n++
		}
	}
	return n
}

// Seen reports whether the processor ever cached addr.
func (t *Tracker) Seen(addr prog.Word) bool {
	return t.seen[addr>>6]&(1<<(uint(addr)&63)) != 0
}

// Lost returns how addr was last lost and the timetag it had then.
func (t *Tracker) Lost(addr prog.Word) (LostReason, int64) {
	return t.reason[addr], t.lostTT[addr]
}
