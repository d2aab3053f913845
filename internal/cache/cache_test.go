package cache

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/prog"
)

func TestSplitAndLineBase(t *testing.T) {
	c := New(64, 4, 1)
	tag, w := c.Split(prog.Word(13))
	if tag != 3 || w != 1 {
		t.Fatalf("Split(13) = (%d,%d), want (3,1)", tag, w)
	}
	if got := c.LineBase(13); got != 12 {
		t.Fatalf("LineBase(13) = %d, want 12", got)
	}
}

func TestLookupMissThenFill(t *testing.T) {
	c := New(64, 4, 1)
	if _, _, ok := c.Lookup(20); ok {
		t.Fatal("empty cache must miss")
	}
	v := c.Victim(20)
	if v.ch == nil || c.State(v) != Invalid {
		t.Fatal("victim in empty cache must be an invalid frame")
	}
	tag, w := c.Split(20)
	c.Install(v, tag, Shared)
	c.SetTT(v, w, 5)
	c.SetVal(v, w, 3.25)
	c.Touch(v)
	l, w2, ok := c.Lookup(20)
	if !ok || w2 != w || !c.ValidWord(l, w2) || c.Val(l, w2) != 3.25 {
		t.Fatalf("lookup after fill failed: %v %d %v", l, w2, ok)
	}
	// Word 21 shares the line but is invalid.
	l21, w21, ok := c.Lookup(21)
	if !ok || !sameFrame(l21, l) {
		t.Fatal("same-line lookup must find the line")
	}
	if c.ValidWord(l21, w21) {
		t.Fatal("unfilled word must be invalid")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(16, 4, 1) // 4 lines, direct mapped
	// addresses 0 and 16 map to the same set (tags 0 and 4, 4 sets).
	fill := func(addr prog.Word) {
		v := c.Victim(addr)
		tag, w := c.Split(addr)
		c.InvalidateLine(v)
		c.Install(v, tag, Shared)
		c.SetTT(v, w, 1)
		c.Touch(v)
	}
	fill(0)
	if _, _, ok := c.Lookup(0); !ok {
		t.Fatal("0 should be present")
	}
	v := c.Victim(16)
	tag0, _ := c.Split(0)
	if c.Tag(v) != tag0 {
		t.Fatalf("victim for 16 must be the line holding 0, got tag %d", c.Tag(v))
	}
	fill(16)
	if _, _, ok := c.Lookup(0); ok {
		t.Fatal("0 must be evicted by 16 in a direct-mapped cache")
	}
}

func TestSetAssociativeLRU(t *testing.T) {
	c := New(32, 4, 2) // 8 lines, 4 sets... 32/4=8 lines, 8/2=4 sets
	fill := func(addr prog.Word) {
		v := c.Victim(addr)
		tag, w := c.Split(addr)
		c.InvalidateLine(v)
		c.Install(v, tag, Shared)
		c.SetTT(v, w, 1)
		c.Touch(v)
	}
	// tags 0, 4, 8 all map to set 0 (4 sets).
	fill(0)
	fill(16)
	// touch 0 so 16 is LRU
	if l, _, ok := c.Lookup(0); ok {
		c.Touch(l)
	} else {
		t.Fatal("0 missing")
	}
	fill(32) // must evict 16
	if _, _, ok := c.Lookup(0); !ok {
		t.Fatal("0 (MRU) must survive")
	}
	if _, _, ok := c.Lookup(16); ok {
		t.Fatal("16 (LRU) must be evicted")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(64, 4, 1)
	v := c.Victim(0)
	tag, _ := c.Split(0)
	c.Install(v, tag, Shared)
	c.SetTT(v, 0, 1)
	c.SetTT(v, 2, 3)
	if got := c.InvalidateAll(); got != 2 {
		t.Fatalf("dropped %d words, want 2", got)
	}
	if _, _, ok := c.Lookup(0); ok {
		t.Fatal("cache must be empty after InvalidateAll")
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker(100)
	if tr.Seen(5) {
		t.Fatal("fresh tracker must not have seen 5")
	}
	tr.NoteCached(5)
	if !tr.Seen(5) {
		t.Fatal("5 must be seen")
	}
	tr.NoteLost(5, LostInvalFalse, 7)
	r, tt := tr.Lost(5)
	if r != LostInvalFalse || tt != 7 {
		t.Fatalf("Lost = (%v,%d)", r, tt)
	}
	// losing a never-seen word is a no-op
	tr.NoteLost(6, LostReplaced, 1)
	if r, _ := tr.Lost(6); r != LostNone {
		t.Fatal("unseen word must keep LostNone")
	}
}

// TestTrackerNoteLineLost: every valid word of the line is recorded lost
// with its own timetag, holes are skipped, and the count is returned.
func TestTrackerNoteLineLost(t *testing.T) {
	c := New(64, 4, 1)
	tr := NewTracker(64)
	l := c.Victim(20)
	c.Install(l, 5, Shared)
	for w, tt := range []int64{3, TTInvalid, 4, 6} {
		c.SetTT(l, w, tt)
	}
	for a := prog.Word(20); a < 24; a++ {
		tr.NoteCached(a)
	}
	if n := tr.NoteLineLost(c, l, LostInvalTrue); n != 3 {
		t.Fatalf("valid words lost = %d, want 3", n)
	}
	for a, want := range map[prog.Word]int64{20: 3, 22: 4, 23: 6} {
		if r, tt := tr.Lost(a); r != LostInvalTrue || tt != want {
			t.Fatalf("word %d: lost %v/%d, want true-sharing/%d", a, r, tt, want)
		}
	}
	if r, _ := tr.Lost(21); r != LostNone {
		t.Fatalf("a hole must not be recorded lost, got %v", r)
	}
}

func TestWriteBufferCoalescing(t *testing.T) {
	wb := NewWriteBuffer(true)
	if !wb.Write(10) {
		t.Fatal("first write generates traffic")
	}
	if wb.Write(10) {
		t.Fatal("second write to same word must coalesce")
	}
	if !wb.Write(11) {
		t.Fatal("different word generates traffic")
	}
	wb.Flush()
	if !wb.Write(10) {
		t.Fatal("after flush the word is no longer pending")
	}

	plain := NewWriteBuffer(false)
	if !plain.Write(10) || !plain.Write(10) {
		t.Fatal("plain buffer never coalesces")
	}
}

// TestWriteBufferGrowth drives the pending set far past its initial
// capacity and cross-checks every traffic decision against a model map:
// a write is traffic exactly when its word is not already pending this
// epoch, through any number of grow/rehash steps.
func TestWriteBufferGrowth(t *testing.T) {
	wb := NewWriteBuffer(true)
	model := map[prog.Word]bool{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		addr := prog.Word(r.Intn(2048))
		if traffic := wb.Write(addr); traffic == model[addr] {
			t.Fatalf("write %d of word %d: traffic = %v with pending = %v", i, addr, traffic, model[addr])
		}
		model[addr] = true
		if wb.Pending() != len(model) {
			t.Fatalf("Pending = %d, model holds %d", wb.Pending(), len(model))
		}
	}
	wb.Flush()
	if wb.Pending() != 0 {
		t.Fatalf("Pending = %d after Flush", wb.Pending())
	}
	for addr := range model {
		if !wb.Write(addr) {
			t.Fatalf("word %d still coalesces after Flush", addr)
		}
	}
}

// TestWriteBufferGenerationWraparound: when the epoch generation counter
// wraps, the stamp array must be reset so pre-wrap entries cannot alias
// the restarted counter and falsely coalesce.
func TestWriteBufferGenerationWraparound(t *testing.T) {
	wb := NewWriteBuffer(true)
	wb.gen = ^uint32(0)
	if !wb.Write(7) {
		t.Fatal("first write at max generation is traffic")
	}
	if wb.Write(7) {
		t.Fatal("repeat write at max generation must coalesce")
	}
	wb.Flush() // wraps: stamps cleared, generation restarts at 1
	if wb.gen != 1 {
		t.Fatalf("generation = %d after wraparound, want 1", wb.gen)
	}
	if !wb.Write(7) {
		t.Fatal("pre-wrap entry must not survive the wraparound flush")
	}
}

// Property: after filling an address, Lookup finds it with the value; after
// eviction of its line, it misses — random fill sequence consistency vs a
// model map.
func TestQuickCacheModelConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(64, 4, 2)
		model := map[int64]float64{} // line tag -> fill stamp (presence model)
		present := map[int64]bool{}
		for step := 0; step < 200; step++ {
			addr := prog.Word(r.Intn(256))
			tag, w := c.Split(addr)
			if l, ww, ok := c.Lookup(addr); ok {
				if ww != w {
					return false
				}
				if present[tag] && c.ValidWord(l, ww) && c.Val(l, ww) != model[int64(addr)] {
					return false
				}
				c.Touch(l)
				continue
			}
			// fill
			v := c.Victim(addr)
			if c.State(v) != Invalid {
				delete(present, c.Tag(v))
			}
			c.InvalidateLine(v)
			c.Install(v, tag, Shared)
			val := r.Float64()
			c.SetTT(v, w, int64(step))
			c.SetVal(v, w, val)
			model[int64(addr)] = val
			present[tag] = true
			c.Touch(v)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFourWayAssociativity(t *testing.T) {
	c := New(64, 4, 4) // 16 lines, 4 sets of 4 ways
	fill := func(addr prog.Word, stamp int64) {
		v := c.Victim(addr)
		if c.State(v) != Invalid {
			c.InvalidateLine(v)
		}
		tag, w := c.Split(addr)
		c.Install(v, tag, Shared)
		c.SetTT(v, w, stamp)
		c.Touch(v)
	}
	// Four tags mapping to set 0 coexist (tags 0,4,8,12 with 4 sets).
	for k := 0; k < 4; k++ {
		fill(prog.Word(k*16), int64(k))
	}
	for k := 0; k < 4; k++ {
		if _, _, ok := c.Lookup(prog.Word(k * 16)); !ok {
			t.Fatalf("way %d evicted prematurely", k)
		}
	}
	// Fifth conflicting fill evicts exactly the LRU (tag of addr 0).
	fill(prog.Word(4*16), 9)
	if _, _, ok := c.Lookup(0); ok {
		t.Fatal("LRU way must be the victim")
	}
	for k := 1; k < 5; k++ {
		if _, _, ok := c.Lookup(prog.Word(k * 16)); !ok {
			t.Fatalf("way %d should survive", k)
		}
	}
}

func TestForEachValidLine(t *testing.T) {
	c := New(32, 4, 1)
	v := c.Victim(0)
	tag, _ := c.Split(0)
	c.Install(v, tag, Shared)
	c.SetTT(v, 0, 1)
	seen := 0
	c.ForEachValidLine(func(Frame) { seen++ })
	if seen != 1 {
		t.Fatalf("visited %d lines, want 1", seen)
	}
}

func TestWordValidityAndDirtyBits(t *testing.T) {
	c := New(16, 4, 1)
	v := c.Victim(0)
	tag, _ := c.Split(0)
	c.Install(v, tag, Shared)
	c.SetTT(v, 1, 5)
	c.MarkDirtyWord(v, 1)
	if c.ValidWord(v, 0) || !c.ValidWord(v, 1) {
		t.Fatal("per-word validity broken")
	}
	c.InvalidateWord(v, 1)
	if c.ValidWord(v, 1) {
		t.Fatal("InvalidateWord failed")
	}
	if c.DirtyWords(v) != 1 {
		t.Fatal("InvalidateWord must not clear dirty accounting")
	}
	c.InvalidateLine(v)
	if c.DirtyWords(v) != 0 {
		t.Fatal("InvalidateLine must clear dirty bits")
	}
}

// TestSplitCrossCheck verifies the power-of-two shift/mask Split and
// LineBase against the general div/mod path for both power-of-two and
// non-power-of-two line sizes.
func TestSplitCrossCheck(t *testing.T) {
	refSplit := func(addr prog.Word, lw int) (int64, int) {
		return int64(addr) / int64(lw), int(int64(addr) % int64(lw))
	}
	refBase := func(addr prog.Word, lw int) prog.Word {
		return addr - prog.Word(int(int64(addr))%lw)
	}
	for _, lw := range []int{1, 2, 4, 8, 16, 3, 5, 6, 12} {
		c := New(int64(lw*16), lw, 1)
		pow2 := lw&(lw-1) == 0
		if c.pow2 != pow2 {
			t.Fatalf("lineWords=%d: pow2 flag = %v, want %v", lw, c.pow2, pow2)
		}
		for _, addr := range []prog.Word{0, 1, prog.Word(lw - 1), prog.Word(lw), prog.Word(lw + 1), 63, 64, 1023, 1 << 30} {
			wantTag, wantW := refSplit(addr, lw)
			tag, w := c.Split(addr)
			if tag != wantTag || w != wantW {
				t.Fatalf("lineWords=%d Split(%d) = (%d,%d), want (%d,%d)", lw, addr, tag, w, wantTag, wantW)
			}
			if got, want := c.LineBase(addr), refBase(addr, lw); got != want {
				t.Fatalf("lineWords=%d LineBase(%d) = %d, want %d", lw, addr, got, want)
			}
		}
		rnd := rand.New(rand.NewSource(int64(lw)))
		for i := 0; i < 1000; i++ {
			addr := prog.Word(rnd.Int63n(1 << 40))
			wantTag, wantW := refSplit(addr, lw)
			if tag, w := c.Split(addr); tag != wantTag || w != wantW {
				t.Fatalf("lineWords=%d Split(%d) = (%d,%d), want (%d,%d)", lw, addr, tag, w, wantTag, wantW)
			}
			if got, want := c.LineBase(addr), refBase(addr, lw); got != want {
				t.Fatalf("lineWords=%d LineBase(%d) = %d, want %d", lw, addr, got, want)
			}
		}
	}
}

// TestTrackerBitset exercises the seen bits across word boundaries and
// against a reference map implementation.
func TestTrackerBitset(t *testing.T) {
	const memWords = 200 // deliberately not a multiple of 64
	tr := NewTracker(memWords)
	if got, want := len(tr.bits), 2*((memWords+63)/64); got != want {
		t.Fatalf("bit words = %d, want %d", got, want)
	}
	ref := map[prog.Word]bool{}
	for _, addr := range []prog.Word{0, 1, 62, 63, 64, 65, 127, 128, memWords - 1} {
		if tr.Seen(addr) {
			t.Fatalf("Seen(%d) true before NoteCached", addr)
		}
		tr.NoteCached(addr)
		ref[addr] = true
	}
	for addr := prog.Word(0); addr < memWords; addr++ {
		if tr.Seen(addr) != ref[addr] {
			t.Fatalf("Seen(%d) = %v, want %v", addr, tr.Seen(addr), ref[addr])
		}
	}
	// NoteLost on a seen word records reason+tt; on an unseen word it is
	// a no-op (cold words classify as cold, not replaced).
	tr.NoteLost(63, LostReplaced, 7)
	if r, tt := tr.Lost(63); r != LostReplaced || tt != 7 {
		t.Fatalf("Lost(63) = (%v,%d), want (LostReplaced,7)", r, tt)
	}
	tr.NoteLost(100, LostReplaced, 9)
	if tr.Seen(100) {
		t.Fatal("NoteLost must not mark unseen words as seen")
	}
	if r, _ := tr.Lost(100); r != LostNone {
		t.Fatalf("Lost(100) = %v on never-cached word, want LostNone", r)
	}
	// Re-caching resets the loss reason.
	tr.NoteCached(63)
	if r, _ := tr.Lost(63); r != LostNone {
		t.Fatalf("Lost(63) after recache = %v, want LostNone", r)
	}
}

// dirty drives a cache through the fills and drops a run makes: whole-
// line fills, partial (write-validate) fills, word invalidations, and a
// flash invalidation partway through.
func dirty(c *Cache, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		addr := prog.Word(rng.Intn(4096))
		if f, w, ok := c.Lookup(addr); ok && rng.Intn(3) == 0 {
			c.InvalidateWord(f, w)
			continue
		}
		v := c.Victim(addr)
		tag, w := c.Split(addr)
		c.InvalidateLine(v)
		c.Install(v, tag, Shared)
		if rng.Intn(2) == 0 {
			c.SetState(v, Exclusive)
			c.SetDirty(v, true)
		}
		for k := 0; k < c.LineWords(); k++ {
			if k == w || rng.Intn(2) == 0 {
				c.SetTT(v, k, int64(i))
				c.SetVal(v, k, float64(i))
				if rng.Intn(2) == 0 {
					c.MarkUsed(v, k)
				}
				if rng.Intn(2) == 0 {
					c.MarkDirtyWord(v, k)
				}
			}
		}
		c.Touch(v)
		if i == n/2 {
			c.InvalidateAll()
		}
	}
}

// fullScanValid lists the valid lines in line order, over every slot of
// every allocated chunk: what ForEachValidLine would visit without the
// touched-set bitset.
func fullScanValid(c *Cache) []Frame {
	var out []Frame
	for _, ch := range c.chunks {
		if ch == nil {
			continue
		}
		for i := 0; i < c.meta; i++ { // meta is the chunk's frame count
			if State(ch[c.meta+i]) != Invalid {
				out = append(out, Frame{ch, i})
			}
		}
	}
	return out
}

// sameFrame reports whether two frames name the same slot of the same
// chunk.
func sameFrame(a, b Frame) bool { return &a.ch[0] == &b.ch[0] && a.i == b.i }

// geometries are the (capacity, associativity) pairs the pooling and
// scan tests cover at four-word lines: single-chunk caches of 64, 32 and
// 20 sets (20: a set count that is not a power of two, the modulo set
// index), caches spanning several 64-set chunks, 96 sets in 32-set
// chunks, 65 sets in one-set chunks, and a fully associative cache.
var geometries = []struct {
	capacity int64
	assoc    int
}{{256, 1}, {256, 2}, {240, 3}, {768, 1}, {1536, 2}, {1536, 3}, {4096, 4}, {384, 1}, {260, 1}, {256, 64}}

// TestPooledReuseIsFresh: a cache released to the free list and
// re-obtained with the same geometry must equal a freshly built one
// in every field — the chunk table (all chunks returned), the clock and
// the touched-set bitset — after fills, partial fills, word
// invalidations and a flash invalidation, and must miss everywhere.
func TestPooledReuseIsFresh(t *testing.T) {
	const lineWords = 4
	for _, g := range geometries {
		c := New(g.capacity, lineWords, g.assoc)
		dirty(c, rand.New(rand.NewSource(int64(g.assoc))), 500)
		Release(c)
		r := New(g.capacity, lineWords, g.assoc)
		if r != c {
			t.Logf("%d/%d: pool did not return the released cache (GC-cleared pool)", g.capacity, g.assoc)
			continue
		}
		if fresh := build(g.capacity, lineWords, g.assoc); !reflect.DeepEqual(r, fresh) {
			t.Fatalf("%d/%d: pooled cache differs from a fresh one", g.capacity, g.assoc)
		}
		for addr := prog.Word(0); addr < 4096; addr += 3 {
			if _, _, ok := r.Lookup(addr); ok {
				t.Fatalf("%d/%d: pooled cache hits addr %d before any fill", g.capacity, g.assoc, addr)
			}
		}
		if held, _, _ := r.Footprint(); held != 0 {
			t.Fatalf("%d/%d: pooled cache holds %d chunks before any fill", g.capacity, g.assoc, held)
		}
	}
}

// TestFreeListChunkIsFresh: every chunk Release puts on the free list —
// whatever its sets held — equals a freshly allocated chunk of its
// layout, word for word.
func TestFreeListChunkIsFresh(t *testing.T) {
	for _, g := range geometries {
		c := build(g.capacity, 4, g.assoc)
		dirty(c, rand.New(rand.NewSource(g.capacity)), 800)
		held, _, _ := c.Footprint()
		fl := c.free
		fl.mu.Lock()
		before := len(fl.items)
		fl.mu.Unlock()
		Release(c)
		fl.mu.Lock()
		released := append([]chunk(nil), fl.items[before:]...)
		fl.mu.Unlock()
		if len(released) != held {
			t.Fatalf("%d/%d: Release returned %d chunks, the cache held %d", g.capacity, g.assoc, len(released), held)
		}
		fresh := fl.newChunk()
		for k, ch := range released {
			if !slices.Equal(ch, fresh) {
				t.Fatalf("%d/%d: released chunk %d differs from a fresh one", g.capacity, g.assoc, k)
			}
		}
	}
}

// TestChunksTileTheSets: a cache that fills every set holds one chunk
// per chunk of sets and no more line storage than its own frames and
// words — 24 bytes per frame, 16 per word, and the two per-word bitsets
// rounded up to whole words per set at worst — whatever its set count.
// A fully associative 64 KB cache is one chunk of its single set.
func TestChunksTileTheSets(t *testing.T) {
	for _, g := range []struct {
		capacity         int64
		lineWords, assoc int
		chunks           int
	}{
		{16384, 4, 4096, 1}, // fully associative: one set
		{12, 4, 1, 1},       // 3 sets
		{192, 4, 1, 1},      // 48 sets
		{260, 4, 1, 65},     // 65 sets: one per chunk
		{384, 4, 1, 3},      // 96 sets: 32 per chunk
		{768, 4, 1, 3},      // 192 sets: 64 per chunk
		{16384, 1, 1, 256},  // 16384 sets
		{2304, 4, 3, 3},     // 192 sets of 3 ways
	} {
		c := build(g.capacity, g.lineWords, g.assoc)
		sets := int(g.capacity) / g.lineWords / g.assoc
		for s := 0; s < sets; s++ {
			c.Install(c.Victim(prog.Word(s*g.lineWords)), int64(s), Shared)
		}
		held, touched, total := c.Footprint()
		if held != g.chunks || touched != g.chunks || total != g.chunks {
			t.Errorf("%d/%d/%d: footprint %d held, %d touched of %d, want %d chunks",
				g.capacity, g.lineWords, g.assoc, held, touched, total, g.chunks)
		}
		frames := int64(sets * g.assoc)
		bound := 24*frames + 16*g.capacity + 16*int64(sets*((g.assoc*g.lineWords+63)/64))
		if got := int64(held * c.ChunkBytes()); got > bound {
			t.Errorf("%d/%d/%d: %d bytes of chunks, over the %d-byte bound", g.capacity, g.lineWords, g.assoc, got, bound)
		}
		for s := 0; s < sets; s++ {
			if f, _, ok := c.Lookup(prog.Word(s * g.lineWords)); !ok || c.Tag(f) != int64(s) {
				t.Fatalf("%d/%d/%d: set %d lost its line", g.capacity, g.lineWords, g.assoc, s)
			}
		}
		Release(c)
	}
}

// TestRetainLimit: the free lists together keep at most retainLimit
// bytes; a value released past the limit is dropped, and Retained counts
// exactly what the lists hold.
func TestRetainLimit(t *testing.T) {
	listed := func() (n int64) {
		sum := func(sizes []int64) {
			for _, s := range sizes {
				n += s
			}
		}
		chunkLists.Range(func(_, v any) bool {
			cl := v.(*chunkList)
			cl.mu.Lock()
			sum(cl.sizes)
			cl.mu.Unlock()
			return true
		})
		sum(trackers.sizes)
		sum(wbPool.sizes)
		return n
	}
	defer func(l int64) { retainLimit = l }(retainLimit)
	base := Retained()
	retainLimit = base + 64<<10
	var released int64
	for capacity := int64(1024); capacity <= 16384; capacity *= 2 {
		for _, assoc := range []int{1, 2, 4} {
			c := New(capacity, 4, assoc)
			for addr := prog.Word(0); addr < prog.Word(capacity); addr += 4 {
				c.Install(c.Victim(addr), int64(addr/4), Shared)
			}
			held, _, _ := c.Footprint()
			released += int64(held * c.ChunkBytes())
			Release(c)
			ReleaseTracker(NewTracker(capacity))
			if r := Retained(); r > retainLimit || r != listed() {
				t.Fatalf("%d/%d: Retained %d, limit %d, lists hold %d", capacity, assoc, r, retainLimit, listed())
			}
		}
	}
	if released < 2*(retainLimit-base) {
		t.Fatalf("released only %d bytes: the limit was never reached", released)
	}
}

// TestChunkStorageHasNoPointers: a chunk's element type holds no
// pointer, slice, map, string or interface, so the garbage collector
// never scans cache storage.
func TestChunkStorageHasNoPointers(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s: %v holds a pointer", path, ty)
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(chunk{}).Elem(), "chunk[]")
}

// TestLookupDoesNotAllocateChunks: only Victim allocates a chunk, and
// only the one holding the set it claims.
func TestLookupDoesNotAllocateChunks(t *testing.T) {
	c := build(1536, 4, 2) // 192 sets in three chunks
	for addr := prog.Word(0); addr < 8192; addr++ {
		if _, _, ok := c.Lookup(addr); ok {
			t.Fatalf("empty cache hits %d", addr)
		}
	}
	if held, _, _ := c.Footprint(); held != 0 {
		t.Fatalf("lookups allocated %d chunks", held)
	}
	c.Victim(prog.Word(4 * 130)) // set 130: the third chunk
	if held, touched, total := c.Footprint(); held != 1 || touched != 1 || total != 3 || c.chunks[2] == nil {
		t.Fatalf("footprint after one fill = %d held, %d touched of %d", held, touched, total)
	}
	Release(c)
}

// TestReleaseAllocatesNothing: once warm, a New+fill+Release cycle of
// one geometry reuses the released header and chunks.
func TestReleaseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cycle := func() {
		c := New(16384, 4, 1)
		for addr := prog.Word(0); addr < 16384; addr += 4 * chunkSets { // one fill per chunk
			v := c.Victim(addr)
			tag, w := c.Split(addr)
			c.Install(v, tag, Shared)
			c.SetTT(v, w, 1)
		}
		Release(c)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm New+Release cycle allocates %v times", n)
	}
}

// TestConcurrentReuse: caches of one geometry built, filled and released
// from several goroutines at once — as concurrent runs and host-parallel
// workers do — share the free lists without handing one chunk to two
// caches: every cache starts empty and reads back what it wrote.
func TestConcurrentReuse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 50; round++ {
				c := New(1536, 4, 2)
				if held, _, _ := c.Footprint(); held != 0 {
					t.Errorf("goroutine %d round %d: a new cache holds %d chunks", g, round, held)
					return
				}
				want := map[int64]float64{}
				for i := 0; i < 100; i++ {
					addr := prog.Word(rng.Intn(4096))
					tag, w := c.Split(addr)
					f, _, ok := c.Lookup(addr)
					if !ok {
						f = c.Victim(addr)
						if c.State(f) != Invalid {
							delete(want, c.Tag(f))
							c.InvalidateLine(f)
						}
						c.Install(f, tag, Shared)
					}
					v := float64(g*1e6 + round*1e3 + i)
					c.SetTT(f, w, 0)
					c.SetVal(f, w, v)
					want[tag] = v
					if got := c.Val(f, w); got != v || c.Tag(f) != tag {
						t.Errorf("goroutine %d round %d: wrote %v to line %d, read %v from line %d", g, round, v, tag, got, c.Tag(f))
						return
					}
				}
				c.ForEachValidLine(func(f Frame) {
					if _, ok := want[c.Tag(f)]; !ok {
						t.Errorf("goroutine %d round %d: line %d is valid but was never filled", g, round, c.Tag(f))
					}
				})
				Release(c)
			}
		}(g)
	}
	wg.Wait()
}

// TestTouchedSetScans: ForEachValidLine visits exactly the lines a full
// scan finds, in the same order, and InvalidateAll drops the same words
// a full scan counts — over pooled and fresh caches alike.
func TestTouchedSetScans(t *testing.T) {
	for _, g := range geometries {
		rng := rand.New(rand.NewSource(g.capacity + int64(g.assoc)))
		for round := 0; round < 4; round++ {
			c := New(g.capacity, 4, g.assoc)
			dirty(c, rng, 50+rng.Intn(400))
			want := fullScanValid(c)
			var got []Frame
			c.ForEachValidLine(func(f Frame) { got = append(got, f) })
			if !slices.EqualFunc(got, want, sameFrame) {
				t.Fatalf("%d/%d round %d: ForEachValidLine visited %d lines, full scan %d (or in another order)",
					g.capacity, g.assoc, round, len(got), len(want))
			}
			var words int64
			for _, f := range want {
				for w := 0; w < c.LineWords(); w++ {
					if c.TT(f, w) != TTInvalid {
						words++
					}
				}
			}
			if dropped := c.InvalidateAll(); dropped != words {
				t.Fatalf("%d/%d round %d: InvalidateAll dropped %d words, full scan counts %d", g.capacity, g.assoc, round, dropped, words)
			}
			if left := fullScanValid(c); len(left) != 0 {
				t.Fatalf("%d/%d round %d: %d lines valid after InvalidateAll", g.capacity, g.assoc, round, len(left))
			}
			if held, touched, _ := c.Footprint(); held != touched {
				t.Fatalf("%d/%d round %d: %d chunks held, %d touched", g.capacity, g.assoc, round, held, touched)
			}
			Release(c)
		}
	}
}

// TestSetIndex: the mask path and the modulo fallback agree with
// tag % sets.
func TestSetIndex(t *testing.T) {
	for _, g := range []struct {
		capacity int64
		assoc    int
		pow2     bool
	}{{256, 1, true}, {256, 2, true}, {240, 3, false}, {192, 1, false}} {
		c := build(g.capacity, 4, g.assoc)
		if (c.setMask >= 0) != g.pow2 {
			t.Fatalf("capacity %d assoc %d: setMask %d, want power-of-two path %v", g.capacity, g.assoc, c.setMask, g.pow2)
		}
		for tag := int64(0); tag < 1000; tag++ {
			if got, want := c.setIndex(tag), int(tag%int64(c.sets)); got != want {
				t.Fatalf("capacity %d assoc %d: setIndex(%d) = %d, want %d", g.capacity, g.assoc, tag, got, want)
			}
		}
	}
}

// TestPooledTrackerIsFresh: a released tracker re-obtained for the same
// memory extent, or for a smaller one, must report no word as seen or
// lost and span exactly the new extent.
func TestPooledTrackerIsFresh(t *testing.T) {
	for _, extent := range []int64{512, 300} {
		tr := NewTracker(512)
		for a := prog.Word(0); a < 512; a += 2 {
			tr.NoteCached(a)
			tr.NoteLost(a, LostReset, 3)
		}
		ReleaseTracker(tr)
		r := NewTracker(extent)
		if r != tr {
			t.Fatalf("extent %d: NewTracker did not reuse the released tracker", extent)
		}
		for a := prog.Word(0); a < prog.Word(extent); a++ {
			if r.Seen(a) {
				t.Fatalf("extent %d: pooled tracker has word %d seen", extent, a)
			}
			if reason, _ := r.Lost(a); reason != LostNone {
				t.Fatalf("extent %d: pooled tracker has word %d lost (%v)", extent, a, reason)
			}
		}
		if len(r.bits) != 2*(int(extent+63)/64) || len(r.index) != int(extent+63)/64 || len(r.arena) != 0 {
			t.Fatalf("extent %d: pooled tracker has %d bit words, %d index slots and %d chunks",
				extent, len(r.bits), len(r.index), len(r.arena))
		}
	}
}
