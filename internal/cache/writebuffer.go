package cache

import "repro/internal/prog"

// WriteBuffer models the infinite write buffer of a write-through cache.
// When organized as a cache (DEC Alpha 21164 style, the paper's
// recommendation), writes to a word already pending in the buffer within
// the current epoch are coalesced and generate no additional memory
// traffic; a plain buffer forwards every write.
//
// The buffer only affects traffic accounting: under weak consistency the
// simulator retires writes to memory immediately (DOALL independence
// guarantees no same-epoch cross-task reader outside critical sections,
// and critical-section writes flush eagerly).
//
// The pending set is an open-addressed hash table with generation-stamped
// slots: membership of a slot is "gen[i] == current generation", so the
// per-epoch Flush is a single counter increment instead of clearing (or
// reallocating) a map — this sits on the write hot path of every
// write-through scheme.
type WriteBuffer struct {
	coalesce bool
	keys     []prog.Word
	gens     []uint32
	gen      uint32
	n        int // live entries in the current generation
}

const wbMinSlots = 64 // power of two; tiny tables grow rarely

// Coalescing buffers grow their table during a run; pooling released
// buffers keeps the grown table across runs, so steady-state simulation
// neither reallocates nor rehashes. A generation bump (Flush) makes every
// slot stale, which is exactly the fresh-buffer state; table capacity is
// not observable (Write's coalescing decision is pure membership).
var wbPool FreeList[*WriteBuffer]

// NewWriteBuffer creates a buffer; coalesce selects the
// write-buffer-as-cache organization.
func NewWriteBuffer(coalesce bool) *WriteBuffer {
	if coalesce {
		if wb, ok := wbPool.Get(); ok {
			wb.Flush()
			return wb
		}
	}
	wb := &WriteBuffer{coalesce: coalesce, gen: 1}
	if coalesce {
		wb.keys = make([]prog.Word, wbMinSlots)
		wb.gens = make([]uint32, wbMinSlots)
	}
	return wb
}

// ReleaseWriteBuffer returns a buffer to its free list; the
// caller must not use it afterwards.
func ReleaseWriteBuffer(wb *WriteBuffer) {
	if wb.coalesce {
		wbPool.Put(wb, int64(8*cap(wb.keys)+4*cap(wb.gens)))
	}
}

// slot probes for addr and returns its slot index: either the slot that
// holds addr in the current generation, or the first stale/empty slot of
// its probe chain.
func (wb *WriteBuffer) slot(addr prog.Word) int {
	mask := len(wb.keys) - 1
	i := int(uint64(addr) * 0x9E3779B97F4A7C15 >> 32 & uint64(mask))
	for wb.gens[i] == wb.gen && wb.keys[i] != addr {
		i = (i + 1) & mask
	}
	return i
}

// Write records a write and reports whether it generates memory traffic
// (false when coalesced into a pending entry).
func (wb *WriteBuffer) Write(addr prog.Word) bool {
	if !wb.coalesce {
		return true
	}
	i := wb.slot(addr)
	if wb.gens[i] == wb.gen {
		return false // already pending this epoch: coalesced
	}
	wb.keys[i] = addr
	wb.gens[i] = wb.gen
	wb.n++
	if wb.n*4 >= len(wb.keys)*3 {
		wb.grow()
	}
	return true
}

// grow doubles the table, rehashing only the current generation's
// entries.
func (wb *WriteBuffer) grow() {
	oldKeys, oldGens := wb.keys, wb.gens
	wb.keys = make([]prog.Word, 2*len(oldKeys))
	wb.gens = make([]uint32, 2*len(oldGens))
	for i, g := range oldGens {
		if g == wb.gen {
			j := wb.slot(oldKeys[i])
			wb.keys[j] = oldKeys[i]
			wb.gens[j] = wb.gen
		}
	}
}

// Flush empties the buffer (epoch boundary: the fence forces all pending
// writes to memory; entries are no longer coalescible afterwards) by
// advancing the generation — O(1), no clearing. On the (theoretical)
// generation-counter wraparound the stamp array is zeroed so stale slots
// cannot alias the restarted counter.
func (wb *WriteBuffer) Flush() {
	if !wb.coalesce {
		return
	}
	wb.n = 0
	wb.gen++
	if wb.gen == 0 {
		clear(wb.gens)
		wb.gen = 1
	}
}

// Pending returns the number of distinct buffered words.
func (wb *WriteBuffer) Pending() int { return wb.n }
