package memsys

import (
	"math/bits"
	"sync"

	"repro/internal/cache"
)

// LineTable is a scheme's home state: a fixed number of 64-bit words per
// memory line (the HW directory's state, owner and sharer sets; Tardis's
// timestamps). It is stored the way the caches store their line state:
// in pointer-free chunks of tableChunk consecutive lines, each allocated,
// or taken from a free list under the caches' shared budget, on the
// first write to one of its lines. An all-zero line is the fresh state,
// so a line whose chunk was never written reads as fresh, and a run pays
// storage only for the chunks its lines touched. The chunk index, one
// slot per tableChunk lines, is the only part that grows with memory.
//
// Mid-epoch the table is read only. Chunks are written by barrier
// replay and by critical-section stores, and both run sequentially, so
// host-parallel lanes never race on it.
type LineTable struct {
	words  int        // words per line
	chunks [][]uint64 // one per tableChunk lines, nil until first written
	// touched has one bit per allocated chunk, so walks over the table
	// skip unwritten memory 64 chunks at a time.
	touched []uint64
	fresh   []uint64 // what every line of an unwritten chunk reads as
	free    *cache.FreeList[[]uint64]
}

// tableChunk is the lines one chunk stores.
const tableChunk = 64

// tableLists holds the free lists of released chunks, one per row width
// (words per line); every chunk on them is all zero.
var tableLists sync.Map // int -> *cache.FreeList[[]uint64]

// EnableHome gives the scheme a home table of words words per memory
// line, released with the caches (ReleaseCaches). Call once, at
// construction.
func (c *Core) EnableHome(words int) *LineTable {
	lines := c.Memory.Size() / int64(c.Cfg.LineWords)
	n := (lines + tableChunk - 1) / tableChunk
	fl, ok := tableLists.Load(words)
	if !ok {
		fl, _ = tableLists.LoadOrStore(words, new(cache.FreeList[[]uint64]))
	}
	c.home = &LineTable{
		words:   words,
		chunks:  make([][]uint64, n),
		touched: make([]uint64, (n+63)/64),
		fresh:   make([]uint64, words),
		free:    fl.(*cache.FreeList[[]uint64]),
	}
	return c.home
}

// HomeTable exposes the scheme's home table (nil without one) for
// white-box tests.
func (c *Core) HomeTable() *LineTable { return c.home }

// Row returns line l's words for reading; the caller must not write
// them (a line of an unwritten chunk shares one fresh row).
func (t *LineTable) Row(l int64) []uint64 {
	if ch := t.chunks[l/tableChunk]; ch != nil {
		i := int(l%tableChunk) * t.words
		return ch[i : i+t.words : i+t.words]
	}
	return t.fresh
}

// Mut returns line l's words for writing, allocating its chunk on the
// first write. Never call it mid-epoch from a host-parallel lane.
func (t *LineTable) Mut(l int64) []uint64 {
	c := l / tableChunk
	ch := t.chunks[c]
	if ch == nil {
		var ok bool
		if ch, ok = t.free.Get(); !ok {
			ch = make([]uint64, tableChunk*t.words)
		}
		t.chunks[c] = ch
		t.touched[c/64] |= 1 << uint(c%64)
	}
	i := int(l%tableChunk) * t.words
	return ch[i : i+t.words : i+t.words]
}

// Each calls fn for every line of every written chunk, in ascending line
// order, and stops at the first error. Lines it skips read as fresh.
func (t *LineTable) Each(fn func(l int64, row []uint64) error) error {
	for wi, w := range t.touched {
		for ; w != 0; w &= w - 1 {
			c := wi*64 + bits.TrailingZeros64(w)
			ch := t.chunks[c]
			for i := 0; i < tableChunk; i++ {
				if err := fn(int64(c*tableChunk+i), ch[i*t.words:(i+1)*t.words:(i+1)*t.words]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Chunks reports how many chunks the table holds.
func (t *LineTable) Chunks() int {
	n := 0
	for _, w := range t.touched {
		n += bits.OnesCount64(w)
	}
	return n
}

// release zeroes every written chunk and returns it to the free list.
// The table must not be used afterwards.
func (t *LineTable) release() {
	for wi, w := range t.touched {
		for ; w != 0; w &= w - 1 {
			c := wi*64 + bits.TrailingZeros64(w)
			clear(t.chunks[c])
			t.free.Put(t.chunks[c], int64(8*len(t.chunks[c])))
		}
	}
	t.chunks, t.touched = nil, nil
}
