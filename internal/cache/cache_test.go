package cache

import (
	"math/rand"
	"reflect"
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
	if v == nil || v.State != Invalid {
		t.Fatal("victim in empty cache must be an invalid frame")
	}
	tag, w := c.Split(20)
	v.Tag = tag
	v.State = Shared
	v.TT[w] = 5
	v.Vals[w] = 3.25
	c.Touch(v)
	l, w2, ok := c.Lookup(20)
	if !ok || w2 != w || !l.ValidWord(w2) || l.Vals[w2] != 3.25 {
		t.Fatalf("lookup after fill failed: %v %d %v", l, w2, ok)
	}
	// Word 21 shares the line but is invalid.
	l21, w21, ok := c.Lookup(21)
	if !ok || l21 != l {
		t.Fatal("same-line lookup must find the line")
	}
	if l21.ValidWord(w21) {
		t.Fatal("unfilled word must be invalid")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(16, 4, 1) // 4 lines, direct mapped
	// addresses 0 and 16 map to the same set (tags 0 and 4, 4 sets).
	fill := func(addr prog.Word) {
		v := c.Victim(addr)
		tag, w := c.Split(addr)
		v.InvalidateLine()
		v.Tag = tag
		v.State = Shared
		v.TT[w] = 1
		c.Touch(v)
	}
	fill(0)
	if _, _, ok := c.Lookup(0); !ok {
		t.Fatal("0 should be present")
	}
	v := c.Victim(16)
	tag0, _ := c.Split(0)
	if v.Tag != tag0 {
		t.Fatalf("victim for 16 must be the line holding 0, got tag %d", v.Tag)
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
		v.InvalidateLine()
		v.Tag = tag
		v.State = Shared
		v.TT[w] = 1
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
	v.Tag = tag
	v.State = Shared
	v.TT[0] = 1
	v.TT[2] = 3
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
	l.Tag, l.State = 5, Shared
	l.TT = []int64{3, TTInvalid, 4, 6}
	for a := prog.Word(20); a < 24; a++ {
		tr.NoteCached(a)
	}
	if n := tr.NoteLineLost(l, 20, LostInvalTrue); n != 3 {
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
				if present[tag] && l.ValidWord(ww) && l.Vals[ww] != model[int64(addr)] {
					return false
				}
				c.Touch(l)
				continue
			}
			// fill
			v := c.Victim(addr)
			if v.State != Invalid {
				delete(present, v.Tag)
			}
			v.InvalidateLine()
			v.Tag = tag
			v.State = Shared
			val := r.Float64()
			v.TT[w] = int64(step)
			v.Vals[w] = val
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
		if v.State != Invalid {
			v.InvalidateLine()
		}
		tag, w := c.Split(addr)
		v.Tag = tag
		v.State = Shared
		v.TT[w] = stamp
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
	v.Tag = tag
	v.State = Shared
	v.TT[0] = 1
	seen := 0
	c.ForEachValidLine(func(l *Line) { seen++ })
	if seen != 1 {
		t.Fatalf("visited %d lines, want 1", seen)
	}
}

func TestWordValidityAndDirtyBits(t *testing.T) {
	c := New(16, 4, 1)
	v := c.Victim(0)
	tag, _ := c.Split(0)
	v.Tag = tag
	v.State = Shared
	v.TT[1] = 5
	v.DirtyW[1] = true
	if v.ValidWord(0) || !v.ValidWord(1) {
		t.Fatal("per-word validity broken")
	}
	v.InvalidateWord(1)
	if v.ValidWord(1) {
		t.Fatal("InvalidateWord failed")
	}
	if !v.DirtyW[1] {
		t.Fatal("InvalidateWord must not clear dirty accounting")
	}
	v.InvalidateLine()
	if v.DirtyW[1] {
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

// TestTrackerBitset exercises the bitset-backed seen set across word
// boundaries and against a reference map implementation.
func TestTrackerBitset(t *testing.T) {
	const memWords = 200 // deliberately not a multiple of 64
	tr := NewTracker(memWords)
	if got, want := len(tr.seen), (memWords+63)/64; got != want {
		t.Fatalf("bitset words = %d, want %d", got, want)
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
		if l, w, ok := c.Lookup(addr); ok && rng.Intn(3) == 0 {
			l.InvalidateWord(w)
			continue
		}
		v := c.Victim(addr)
		tag, w := c.Split(addr)
		v.InvalidateLine()
		v.Tag = tag
		v.State = Shared
		if rng.Intn(2) == 0 {
			v.State = Exclusive
			v.Dirty = true
		}
		for k := range v.TT {
			if k == w || rng.Intn(2) == 0 {
				v.TT[k] = int64(i)
				v.Vals[k] = float64(i)
				v.Used[k] = rng.Intn(2) == 0
				v.DirtyW[k] = rng.Intn(2) == 0
			}
		}
		c.Touch(v)
		if i == n/2 {
			c.InvalidateAll()
		}
	}
}

// fullScanValid lists the valid lines in line-array order: what
// ForEachValidLine visited before it walked only the touched sets.
func fullScanValid(c *Cache) []*Line {
	var out []*Line
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			out = append(out, &c.lines[i])
		}
	}
	return out
}

// TestPooledReuseIsFresh: a cache released back to the construction pool
// and re-obtained with the same geometry must equal a freshly built one
// in every field — line tags, states, dirty bits, values, timetags,
// used/dirty-word bits, LRU stamps, the clock and the touched-set bitset —
// after fills, partial fills, word invalidations and a flash
// invalidation. Associativity 3 gives a set count that is not a power of
// two (the modulo set index).
func TestPooledReuseIsFresh(t *testing.T) {
	const lineWords = 4
	for _, g := range []struct {
		capacity int64
		assoc    int
	}{{256, 1}, {256, 2}, {240, 3}} {
		c := New(g.capacity, lineWords, g.assoc)
		dirty(c, rand.New(rand.NewSource(int64(g.assoc))), 500)
		Release(c)
		r := New(g.capacity, lineWords, g.assoc)
		if r != c {
			t.Logf("assoc %d: pool did not return the released cache (GC-cleared pool)", g.assoc)
			continue
		}
		if fresh := build(g.capacity, lineWords, g.assoc); !reflect.DeepEqual(r, fresh) {
			for i := range r.lines {
				if !reflect.DeepEqual(r.lines[i], fresh.lines[i]) {
					t.Fatalf("assoc %d: pooled line %d = %+v, fresh %+v", g.assoc, i, r.lines[i], fresh.lines[i])
				}
			}
			t.Fatalf("assoc %d: pooled cache differs from a fresh one outside the lines", g.assoc)
		}
		for addr := prog.Word(0); addr < 4096; addr += 3 {
			if _, _, ok := r.Lookup(addr); ok {
				t.Fatalf("assoc %d: pooled cache hits addr %d before any fill", g.assoc, addr)
			}
		}
	}
}

// TestTouchedSetScans: ForEachValidLine visits exactly the lines a full
// scan finds, in the same order, and InvalidateAll drops the same words
// a full scan counts — over pooled and fresh caches alike.
func TestTouchedSetScans(t *testing.T) {
	for _, assoc := range []int{1, 2, 3} {
		capacity := int64(256)
		if assoc == 3 {
			capacity = 240
		}
		rng := rand.New(rand.NewSource(int64(10 + assoc)))
		for round := 0; round < 4; round++ {
			c := New(capacity, 4, assoc)
			dirty(c, rng, 50+rng.Intn(400))
			want := fullScanValid(c)
			var got []*Line
			c.ForEachValidLine(func(l *Line) { got = append(got, l) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("assoc %d round %d: ForEachValidLine visited %d lines, full scan %d (or in another order)",
					assoc, round, len(got), len(want))
			}
			var words int64
			for _, l := range want {
				for w := range l.TT {
					if l.TT[w] != TTInvalid {
						words++
					}
				}
			}
			if dropped := c.InvalidateAll(); dropped != words {
				t.Fatalf("assoc %d round %d: InvalidateAll dropped %d words, full scan counts %d", assoc, round, dropped, words)
			}
			if left := fullScanValid(c); len(left) != 0 {
				t.Fatalf("assoc %d round %d: %d lines valid after InvalidateAll", assoc, round, len(left))
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
// memory extent, or for a smaller one, must report no word as seen and
// span exactly the new extent.
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
			t.Logf("extent %d: pool did not return the released tracker (GC-cleared pool)", extent)
			continue
		}
		for a := prog.Word(0); a < prog.Word(extent); a++ {
			if r.Seen(a) {
				t.Fatalf("extent %d: pooled tracker has word %d seen", extent, a)
			}
		}
		if len(r.reason) != int(extent) || len(r.lostTT) != int(extent) || len(r.seen) != int(extent+63)/64 {
			t.Fatalf("extent %d: pooled tracker spans %d words (%d seen words)", extent, len(r.reason), len(r.seen))
		}
	}
}
