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
//
// Line state lives in pointer-free chunks of up to chunkSets consecutive
// sets (see chunk), allocated the first time a fill claims a set in them.
// Schemes name a line by its Frame and read or write its per-line and
// per-word state only through Cache methods.
package cache

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

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

// Frame names one line frame of a cache: the chunk holding its set and
// the frame's slot in it (set-in-chunk × associativity + way), so the
// per-frame accessors index the chunk directly. A frame stays valid
// until the cache is released; the zero Frame, which Lookup returns on
// a miss, names no frame.
type Frame struct {
	ch chunk
	i  int
}

// chunkSets is the most consecutive sets one chunk stores: one word of
// the touched-set bitset.
const chunkSets = 64

// setsPerChunk is the chunk size of a cache with the given set count:
// every set when there are at most chunkSets, else the largest power of
// two up to chunkSets that divides the set count. Either way the chunks
// tile the sets exactly, so no chunk stores a set the cache lacks and a
// cache that fills every set holds no more than its own line state.
func setsPerChunk(sets int) int {
	if sets <= chunkSets {
		return sets
	}
	return min(sets&-sets, chunkSets)
}

// chunk is the storage of one chunk's sets: one allocation of 64-bit
// words, carved into the regions a layout names. It holds no pointers,
// so the garbage collector never scans it.
type chunk []uint64

// layout gives the word offsets of a chunk's regions for one (line size,
// associativity). Per frame: the tag (at offset 0; -1 when empty), the
// meta word (State in the low byte, the line dirty bit above it) and the
// LRU stamp. Per word, frame-major: the timetag and the value (float64
// bits). Then the Used and DirtyW bitsets, one bit per word.
type layout struct {
	meta, lru, tt, vals, used, dirtyW, size int
}

// dirtyBit is the line dirty bit in a frame's meta word.
const dirtyBit = 1 << 8

// allOnes is -1 (an empty tag, TTInvalid) as a chunk word.
const allOnes = ^uint64(0)

// newLayout lays out a chunk of sets sets of the given line size and
// associativity.
func newLayout(lineWords, assoc, sets int) layout {
	frames := sets * assoc
	words := frames * lineWords
	bitWords := (words + 63) / 64
	l := layout{meta: frames, lru: 2 * frames, tt: 3 * frames}
	l.vals = l.tt + words
	l.used = l.vals + words
	l.dirtyW = l.used + bitWords
	l.size = l.dirtyW + bitWords
	return l
}

// newChunk allocates a chunk in the fresh state: every tag empty and
// every timetag TTInvalid, everything else zero.
func (l layout) newChunk() chunk {
	ch := make(chunk, l.size)
	for i := 0; i < l.meta; i++ {
		ch[i] = allOnes
	}
	for i := l.tt; i < l.vals; i++ {
		ch[i] = allOnes
	}
	return ch
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
	layout
	// chunks holds one chunk per setsPerChunk sets, nil until Victim
	// first claims a set in it. Set s lives in chunk s>>chunkShift, at
	// set slot s&chunkMask (shift 6 and mask 63 for a single chunk).
	chunks     []chunk
	chunkShift uint
	chunkMask  int
	free       *chunkList
	clock      int64
	// touched has one bit per set, set by Victim: every fill goes through
	// Victim first, so a set whose bit is clear still holds only the
	// fresh-construction state. Release, InvalidateAll and
	// ForEachValidLine walk the touched sets alone, in ascending order —
	// the order of a full scan over the lines. Only Release clears it.
	// A chunk's sets lie within one word of it.
	touched       []uint64
	capacityWords int64
}

// A run builds a cache per processor and touches a few percent of the
// sets of most of them, so storage is paid per touched chunk, and both
// the chunks and the small Cache headers are recycled. Release returns
// every chunk, restored to the fresh state, to the free list of its
// layout, and the header to a per-geometry sync.Pool.
type geometry struct {
	capacityWords int64
	lineWords     int
	assoc         int
}

var headers sync.Map // geometry -> *sync.Pool of *Cache

// chunkKey names a chunk layout: line size, associativity and sets per
// chunk.
type chunkKey struct{ lineWords, assoc, sets int }

var chunkLists sync.Map // chunkKey -> *chunkList

// chunkList holds released chunks of one layout, all in the fresh
// state.
type chunkList struct {
	layout
	FreeList[chunk]
}

// get takes a fresh chunk from the list, or allocates one.
func (cl *chunkList) get() chunk {
	if ch, ok := cl.Get(); ok {
		return ch
	}
	return cl.newChunk()
}

// FreeList is a stack of released values kept for reuse. Unlike a
// sync.Pool, the garbage collector never drains it: a run's structures
// survive however many collections pass before the next run, so a
// smaller heap (more frequent collections) does not mean more
// reallocation. All free lists share one budget: together they keep at
// most retainLimit bytes, and a value released past it is left to the
// collector. So a long-lived process (the job server) holds a bounded
// amount between runs however many geometries pass through it.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []T
	sizes []int64 // bytes each item keeps alive, as Put was told
}

// retainLimit is the shared budget of the free lists, in bytes: about
// four times what a 16-point sweep through two job servers keeps
// (17 MB), and a small fraction of what the largest run the service
// admits needs while it runs.
var retainLimit int64 = 64 << 20

// retained is the bytes all free lists hold.
var retained atomic.Int64

// Retained reports the bytes all free lists hold.
func Retained() int64 { return retained.Load() }

// Get pops a released value; ok is false when the list is empty.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	n := len(l.items)
	if n == 0 {
		l.mu.Unlock()
		return v, false
	}
	v, size := l.items[n-1], l.sizes[n-1]
	var zero T
	l.items[n-1] = zero
	l.items, l.sizes = l.items[:n-1], l.sizes[:n-1]
	l.mu.Unlock()
	retained.Add(-size)
	return v, true
}

// Put keeps a value that holds size bytes for reuse, unless that would
// take the free lists past their budget; either way the caller must not
// use it afterwards.
func (l *FreeList[T]) Put(v T, size int64) {
	if retained.Add(size) > retainLimit {
		retained.Add(-size)
		return
	}
	l.mu.Lock()
	l.items = append(l.items, v)
	l.sizes = append(l.sizes, size)
	l.mu.Unlock()
}

// loadOrStore returns m's value for key, storing mk() on a miss. The
// plain Load comes first so the common hit allocates nothing.
func loadOrStore[K comparable, V any](m *sync.Map, key K, mk func() *V) *V {
	if v, ok := m.Load(key); ok {
		return v.(*V)
	}
	v, _ := m.LoadOrStore(key, mk())
	return v.(*V)
}

// Release returns a cache for reuse: its touched sets are restored to
// the fresh state, every chunk goes back to its free list, and the
// header to the pool of its geometry. The caller must not use it
// afterwards (core releases a run's system only after the last snapshot
// has been taken).
func Release(c *Cache) {
	c.forTouchedSets(func(ch chunk, lo, hi int) {
		for i := lo; i < hi; i++ {
			ch[i] = allOnes
		}
		clear(ch[c.meta+lo : c.meta+hi])
		clear(ch[c.lru+lo : c.lru+hi])
		wlo, whi := lo*c.lineWords, hi*c.lineWords
		for i := c.tt + wlo; i < c.tt+whi; i++ {
			ch[i] = allOnes
		}
		clear(ch[c.vals+wlo : c.vals+whi])
		clearBits(ch[c.used:c.dirtyW], wlo, whi)
		clearBits(ch[c.dirtyW:c.size], wlo, whi)
	})
	clear(c.touched)
	c.clock = 0
	for i, ch := range c.chunks {
		if ch != nil {
			c.free.Put(ch, int64(8*len(ch)))
			c.chunks[i] = nil
		}
	}
	headerPool(c.capacityWords, c.lineWords, c.assoc).Put(c)
}

// headerPool returns the pool of released Cache headers of one
// geometry.
func headerPool(capacityWords int64, lineWords, assoc int) *sync.Pool {
	return loadOrStore(&headers, geometry{capacityWords, lineWords, assoc}, func() *sync.Pool {
		return &sync.Pool{}
	})
}

// forTouchedSets calls fn with the chunk and slot range [lo, hi) of
// every run of consecutive touched sets within one chunk, in ascending
// set order.
func (c *Cache) forTouchedSets(fn func(ch chunk, lo, hi int)) {
	for wi, left := range c.touched {
		for left != 0 {
			s := bits.TrailingZeros64(left)
			run := bits.TrailingZeros64(^(left >> uint(s)))
			left &^= (uint64(1)<<uint(run) - 1) << uint(s)
			for set, end := wi*64+s, wi*64+s+run; set < end; {
				slot := set & c.chunkMask
				n := min(end-set, c.chunkMask+1-slot)
				fn(c.chunks[set>>c.chunkShift], slot*c.assoc, (slot+n)*c.assoc)
				set += n
			}
		}
	}
}

// New builds a cache of capacityWords with the given line size (words)
// and associativity. capacityWords must be a multiple of lineWords*assoc.
// A released cache of the same geometry is reused when there is one
// (systems are built per simulated run); either way the cache holds no
// line storage until its first fill.
func New(capacityWords int64, lineWords, assoc int) *Cache {
	if c, ok := headerPool(capacityWords, lineWords, assoc).Get().(*Cache); ok {
		return c
	}
	return build(capacityWords, lineWords, assoc)
}

// build allocates a fresh cache (New without reuse).
func build(capacityWords int64, lineWords, assoc int) *Cache {
	sets := int(capacityWords) / lineWords / assoc
	spc := setsPerChunk(sets)
	fl := loadOrStore(&chunkLists, chunkKey{lineWords, assoc, spc}, func() *chunkList {
		return &chunkList{layout: newLayout(lineWords, assoc, spc)}
	})
	c := &Cache{
		lineWords:     lineWords,
		sets:          sets,
		setMask:       -1,
		assoc:         assoc,
		layout:        fl.layout,
		chunks:        make([]chunk, sets/spc),
		chunkShift:    6,
		chunkMask:     chunkSets - 1,
		free:          fl,
		touched:       make([]uint64, (sets+63)/64),
		capacityWords: capacityWords,
	}
	if sets > chunkSets {
		c.chunkShift = uint(bits.TrailingZeros(uint(spc)))
		c.chunkMask = spc - 1
	}
	if sets&(sets-1) == 0 {
		c.setMask = int64(sets - 1)
	}
	if lineWords&(lineWords-1) == 0 {
		c.pow2 = true
		c.shift = uint(bits.TrailingZeros(uint(lineWords)))
		c.mask = int64(lineWords - 1)
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

// Lookup finds the line holding addr. It returns (frame, word index,
// present); present means the tag matches and the line is not Invalid —
// the word itself may still be invalid (check ValidWord). A miss returns
// the zero Frame, and never allocates.
func (c *Cache) Lookup(addr prog.Word) (Frame, int, bool) {
	tag, w := c.Split(addr)
	s := uint(c.setIndex(tag))
	if ch := c.chunks[s>>c.chunkShift]; ch != nil {
		lo := int(s&uint(c.chunkMask)) * c.assoc
		for i := lo; i < lo+c.assoc; i++ {
			if int64(ch[i]) == tag { // an empty frame's tag is -1
				return Frame{ch, i}, w, true
			}
		}
	}
	return Frame{}, w, false
}

// Holds reports whether *f still holds line tag — the condition Lookup
// matches on. The zero Frame holds nothing. The stream cursors check the
// frame they remember on every reference, in place, hence the pointer.
func (c *Cache) Holds(f *Frame, tag int64) bool {
	return f.ch != nil && int64(f.ch[f.i]) == tag
}

// Victim selects the frame to (re)fill for addr: an invalid way if one
// exists, else the LRU way. The returned frame may hold a conflicting
// valid line that the caller must evict first. The set is marked
// touched (see Cache.touched), and its chunk allocated if this is the
// chunk's first fill.
func (c *Cache) Victim(addr prog.Word) Frame {
	tag, _ := c.Split(addr)
	s := uint(c.setIndex(tag))
	c.touched[s/64] |= 1 << (s % 64)
	ch := c.chunks[s>>c.chunkShift]
	if ch == nil {
		ch = c.free.get()
		c.chunks[s>>c.chunkShift] = ch
	}
	lo := int(s&uint(c.chunkMask)) * c.assoc
	victim := -1
	for i := lo; i < lo+c.assoc; i++ {
		if State(ch[c.meta+i]) == Invalid {
			return Frame{ch, i}
		}
		if victim < 0 || int64(ch[c.lru+i]) < int64(ch[c.lru+victim]) {
			victim = i
		}
	}
	return Frame{ch, victim}
}

// Tag returns the line address (word address / line size) f holds, -1
// when empty.
func (c *Cache) Tag(f Frame) int64 { return int64(f.ch[f.i]) }

// State returns f's line state.
func (c *Cache) State(f Frame) State { return State(f.ch[c.meta+f.i]) }

// SetState moves a valid line between Shared and Exclusive: only
// InvalidateLine makes a frame Invalid, because it also empties the tag,
// and Lookup matches on the tag alone.
func (c *Cache) SetState(f Frame, st State) {
	ch, i := f.ch, f.i
	ch[c.meta+i] = ch[c.meta+i]&^0xff | uint64(st)
}

// Dirty reports the line-grain dirty bit (write-back caches).
func (c *Cache) Dirty(f Frame) bool { return f.ch[c.meta+f.i]&dirtyBit != 0 }

// SetDirty sets or clears the line-grain dirty bit.
func (c *Cache) SetDirty(f Frame, dirty bool) {
	ch, i := f.ch, f.i
	if dirty {
		ch[c.meta+i] |= dirtyBit
	} else {
		ch[c.meta+i] &^= dirtyBit
	}
}

// Install claims an invalid frame for line tag in state st (Shared or
// Exclusive), clean. Its words stay invalid until the caller fills
// them.
func (c *Cache) Install(f Frame, tag int64, st State) {
	ch, i := f.ch, f.i
	ch[i] = uint64(tag)
	ch[c.meta+i] = uint64(st)
}

// Touch refreshes the line's LRU position. Direct-mapped caches (the
// default configuration) skip the bookkeeping: Victim ignores LRU order
// when the set has a single way, so the clock is unobservable.
func (c *Cache) Touch(f Frame) {
	if c.assoc == 1 {
		return
	}
	c.clock++
	ch, i := f.ch, f.i
	ch[c.lru+i] = uint64(c.clock)
}

// InvalidateLine drops the whole line: empty tag, Invalid, clean, every
// word invalid with its used and dirty-word bits clear.
func (c *Cache) InvalidateLine(f Frame) {
	ch, i := f.ch, f.i
	ch[i] = allOnes
	ch[c.meta+i] = 0
	lo := i * c.lineWords
	for k := c.tt + lo; k < c.tt+lo+c.lineWords; k++ {
		ch[k] = allOnes
	}
	clearBits(ch[c.used:c.dirtyW], lo, lo+c.lineWords)
	clearBits(ch[c.dirtyW:c.size], lo, lo+c.lineWords)
}

// ValidWord reports whether word w of the line holds data.
func (c *Cache) ValidWord(f Frame, w int) bool {
	ch, i := f.ch, f.i
	return State(ch[c.meta+i]) != Invalid && int64(ch[c.tt+i*c.lineWords+w]) != TTInvalid
}

// InvalidateWord drops one word (its dirty-word bit stays: traffic
// accounting only).
func (c *Cache) InvalidateWord(f Frame, w int) {
	ch, i := f.ch, f.i
	ch[c.tt+i*c.lineWords+w] = allOnes
}

// TT returns word w's timetag: the epoch (or version, or lease) at which
// the word was last written, filled, or validated by this processor;
// TTInvalid for an invalid word.
func (c *Cache) TT(f Frame, w int) int64 {
	ch, i := f.ch, f.i
	return int64(ch[c.tt+i*c.lineWords+w])
}

// SetTT sets word w's timetag.
func (c *Cache) SetTT(f Frame, w int, tt int64) {
	ch, i := f.ch, f.i
	ch[c.tt+i*c.lineWords+w] = uint64(tt)
}

// Val returns word w's cached value.
func (c *Cache) Val(f Frame, w int) float64 {
	ch, i := f.ch, f.i
	return math.Float64frombits(ch[c.vals+i*c.lineWords+w])
}

// SetVal sets word w's cached value.
func (c *Cache) SetVal(f Frame, w int, v float64) {
	ch, i := f.ch, f.i
	ch[c.vals+i*c.lineWords+w] = math.Float64bits(v)
}

// Used reports whether word w was accessed by the local processor since
// the fill (for false-sharing classification).
func (c *Cache) Used(f Frame, w int) bool {
	ch, i := f.ch, f.i
	b := i*c.lineWords + w
	return ch[c.used+b>>6]&(1<<(uint(b)&63)) != 0
}

// MarkUsed sets word w's used bit.
func (c *Cache) MarkUsed(f Frame, w int) {
	ch, i := f.ch, f.i
	b := i*c.lineWords + w
	ch[c.used+b>>6] |= 1 << (uint(b) & 63)
}

// MarkDirtyWord marks word w written but not yet flushed to memory under
// the write-back-at-boundary policy (traffic accounting only; the
// simulator keeps memory values authoritative).
func (c *Cache) MarkDirtyWord(f Frame, w int) {
	ch, i := f.ch, f.i
	b := i*c.lineWords + w
	ch[c.dirtyW+b>>6] |= 1 << (uint(b) & 63)
}

// DirtyWords counts the line's dirty words.
func (c *Cache) DirtyWords(f Frame) int64 {
	ch, i := f.ch, f.i
	lo := i * c.lineWords
	return countBits(ch[c.dirtyW:c.size], lo, lo+c.lineWords)
}

// FlushDirtyWords counts the line's dirty words and clears them (the
// barrier's write-back burst).
func (c *Cache) FlushDirtyWords(f Frame) int64 {
	ch, i := f.ch, f.i
	lo := i * c.lineWords
	n := countBits(ch[c.dirtyW:c.size], lo, lo+c.lineWords)
	clearBits(ch[c.dirtyW:c.size], lo, lo+c.lineWords)
	return n
}

// clearBits clears bits [lo, hi) of a bitset.
func clearBits(bs []uint64, lo, hi int) {
	for lo < hi {
		n := min(hi-lo, 64-lo&63)
		bs[lo>>6] &^= (uint64(1)<<uint(n) - 1) << (uint(lo) & 63)
		lo += n
	}
}

// countBits counts the set bits in [lo, hi) of a bitset.
func countBits(bs []uint64, lo, hi int) int64 {
	var c int
	for lo < hi {
		n := min(hi-lo, 64-lo&63)
		c += bits.OnesCount64(bs[lo>>6] >> (uint(lo) & 63) & (uint64(1)<<uint(n) - 1))
		lo += n
	}
	return int64(c)
}

// InvalidateAll drops every line (whole-cache flash invalidation).
// It returns the number of valid words dropped.
func (c *Cache) InvalidateAll() int64 {
	var dropped int64
	c.ForEachValidLine(func(f Frame) {
		for w := 0; w < c.lineWords; w++ {
			if c.TT(f, w) != TTInvalid {
				dropped++
			}
		}
		c.InvalidateLine(f)
	})
	return dropped
}

// ForEachValidLine visits every non-invalid line, in ascending line
// order.
func (c *Cache) ForEachValidLine(fn func(f Frame)) {
	c.forTouchedSets(func(ch chunk, lo, hi int) {
		for i := lo; i < hi; i++ {
			if State(ch[c.meta+i]) != Invalid {
				fn(Frame{ch, i})
			}
		}
	})
}

// Footprint reports the chunks the cache holds, the distinct chunks its
// touched sets span, and the chunks a cache holding every set would.
func (c *Cache) Footprint() (held, touched, total int) {
	bitsOf := uint64(1)<<uint(c.chunkMask+1) - 1 // one chunk's sets in a touched word
	for ci, ch := range c.chunks {
		if ch != nil {
			held++
		}
		lo := ci << c.chunkShift
		if c.touched[lo/64]>>uint(lo%64)&bitsOf != 0 {
			touched++
		}
	}
	return held, touched, len(c.chunks)
}

// ChunkBytes is the size of one chunk of the cache's geometry.
func (c *Cache) ChunkBytes() int { return 8 * c.size }

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
// Two bits per word are flat, set and cleared on every fill and store:
// seen, and lost (a loss is recorded since the word was last cached).
// The loss records themselves, the reason and the timetag the word had,
// are written only when a cached word is lost, so they are kept per
// touched chunk of trackWords words in an arena, as the caches keep
// their line state: a run pays for them by what each processor lost,
// not by the memory extent.
type Tracker struct {
	bits  []uint64    // per chunk: its seen bits, then its lost bits
	index []int32     // per chunk: 1 + its arena position, 0 if nothing lost
	arena []lossChunk // loss records, in first-loss order
}

// lossChunk holds the loss records of trackWords consecutive words; a
// record is read only while the word's lost bit is set.
type lossChunk struct {
	reason [trackWords]LostReason
	lostTT [trackWords]int64
}

// trackWords is the words one tracker chunk covers: one word of bits.
const (
	trackWords = 1 << trackShift
	trackShift = 6
)

// trackers recycles released trackers across memory extents: a tracker
// serves any extent up to its capacity, so the list holds about as many
// trackers as concurrent runs use, however many program sizes pass
// through it.
var trackers FreeList[*Tracker]

// NewTracker sizes the tracker for the memory extent, reusing the latest
// released tracker: its bits and index when they have room for the
// extent, its arena capacity always. Reset is clearing the bits and the
// index; an arena chunk's stale records are never read (see lossChunk).
func NewTracker(memWords int64) *Tracker {
	n := (memWords + trackWords - 1) / trackWords
	t, ok := trackers.Get()
	if !ok {
		t = new(Tracker)
	}
	if int64(cap(t.index)) >= n {
		t.bits, t.index = t.bits[:2*n], t.index[:n]
		clear(t.bits)
		clear(t.index)
	} else {
		t.bits, t.index = make([]uint64, 2*n), make([]int32, n)
	}
	t.arena = t.arena[:0]
	return t
}

// ReleaseTracker returns a tracker to its free list; the caller must not
// use it afterwards.
func ReleaseTracker(t *Tracker) {
	trackers.Put(t, int64(8*cap(t.bits)+4*cap(t.index))+int64(unsafe.Sizeof(lossChunk{}))*int64(cap(t.arena)))
}

// NoteCached records that the processor now caches addr.
func (t *Tracker) NoteCached(addr prog.Word) {
	i, b := 2*(addr>>trackShift), uint64(1)<<(uint(addr)&(trackWords-1))
	t.bits[i] |= b
	t.bits[i+1] &^= b
}

// NoteLost records losing a word with a reason and the timetag it had.
func (t *Tracker) NoteLost(addr prog.Word, r LostReason, tt int64) {
	i, b := 2*(addr>>trackShift), uint64(1)<<(uint(addr)&(trackWords-1))
	if t.bits[i]&b == 0 {
		return
	}
	t.bits[i+1] |= b
	c, w := t.records(addr), uint(addr)&(trackWords-1)
	c.reason[w], c.lostTT[w] = r, tt
}

// records returns the loss records of addr's chunk, taking the next
// arena slot on the chunk's first loss.
func (t *Tracker) records(addr prog.Word) *lossChunk {
	k := t.index[addr>>trackShift]
	if k == 0 {
		if n := len(t.arena); n < cap(t.arena) {
			t.arena = t.arena[:n+1]
		} else {
			t.arena = append(t.arena, lossChunk{})
		}
		k = int32(len(t.arena))
		t.index[addr>>trackShift] = k
	}
	return &t.arena[k-1]
}

// NoteLineLost records losing every valid word of frame f of c with one
// reason; it returns how many words were valid.
func (t *Tracker) NoteLineLost(c *Cache, f Frame, r LostReason) int64 {
	base := prog.Word(c.Tag(f) * int64(c.lineWords))
	var n int64
	for w := 0; w < c.lineWords; w++ {
		if tt := c.TT(f, w); tt != TTInvalid {
			t.NoteLost(base+prog.Word(w), r, tt)
			n++
		}
	}
	return n
}

// Seen reports whether the processor ever cached addr.
func (t *Tracker) Seen(addr prog.Word) bool {
	return t.bits[2*(addr>>trackShift)]&(1<<(uint(addr)&(trackWords-1))) != 0
}

// Lost returns how addr was last lost and the timetag it had then:
// LostNone if the word was not lost since it was last cached.
func (t *Tracker) Lost(addr prog.Word) (LostReason, int64) {
	if t.bits[2*(addr>>trackShift)+1]&(1<<(uint(addr)&(trackWords-1))) == 0 {
		return LostNone, 0
	}
	c, w := &t.arena[t.index[addr>>trackShift]-1], uint(addr)&(trackWords-1)
	return c.reason[w], c.lostTT[w]
}
