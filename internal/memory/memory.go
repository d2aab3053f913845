// Package memory models the shared main memory: a word-addressed float64
// store with per-word provenance (last writer and last write epoch),
// packed into one uint64 per word. The provenance doubles as the
// simulator's staleness oracle: the memory is always authoritative under
// write-through, so any cached value that disagrees with it (and predates
// its last write) is stale.
//
// An all-zero image is the fresh state (every word 0, written by
// "program load" at epoch 0), so a released image is cleared and reused
// by the next run instead of reallocated: New and Release are the only
// way in and out.
package memory

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/prog"
)

// Memory is the simulated shared main memory.
type Memory struct {
	words []float64
	// prov is each word's provenance: the last write epoch in the high
	// bits, the last writer plus one in the low writerBits (zero: the
	// program load at epoch 0).
	prov []uint64
}

// writerBits holds writer+1 for every processor machine.MaxProcs allows
// (16384), leaving 48 bits of epoch.
const (
	writerBits = 16
	writerMask = 1<<writerBits - 1
)

// images holds released images at their full capacity, each dirty only
// in its used prefix (len). It is not keyed by extent: New reslices
// whatever it pops, so the list holds about as many images as concurrent
// runs use, and converges to the largest extents seen.
var images cache.FreeList[*Memory]

// New returns a zeroed memory of the given extent, reusing a released
// image when one has the room and allocating one of exactly this extent
// otherwise (a popped image too small for it is left to the collector).
// A reused image is cleared here rather than at release, and only in its
// last run's extent: past that it was never written, and an image the
// free list drops is never touched again, so a sparse run's untouched
// pages stay unmapped.
func New(words int64) *Memory {
	if m, ok := images.Get(); ok && int64(cap(m.words)) >= words {
		clear(m.words)
		clear(m.prov)
		m.words, m.prov = m.words[:words], m.prov[:words]
		return m
	}
	return &Memory{words: make([]float64, words), prov: make([]uint64, words)}
}

// Release keeps the image for a later New, within the free lists' shared
// budget. The caller must not use m afterwards.
func Release(m *Memory) {
	images.Put(m, int64(cap(m.words))*16)
}

// Size returns the memory extent in words.
func (m *Memory) Size() int64 { return int64(len(m.words)) }

// Read returns the current (authoritative) value of a word.
func (m *Memory) Read(addr prog.Word) float64 {
	return m.words[addr]
}

// Words exposes the authoritative word store, read-only by contract. The
// stream cursors use it to inline the staleness-oracle compare on cache
// hits (CheckFresh stays the panic path, with the full diagnostic).
func (m *Memory) Words() []float64 { return m.words }

// Write stores a value with provenance.
func (m *Memory) Write(addr prog.Word, v float64, proc int, epoch int64) {
	m.words[addr] = v
	m.prov[addr] = uint64(epoch)<<writerBits | uint64(proc+1)
}

// LastWriteEpoch returns the epoch of the most recent write to addr
// (0 if never written since load).
func (m *Memory) LastWriteEpoch(addr prog.Word) int64 {
	return int64(m.prov[addr] >> writerBits)
}

// LastWriter returns the processor that last wrote addr (-1 = initial).
func (m *Memory) LastWriter(addr prog.Word) int {
	return int(m.prov[addr]&writerMask) - 1
}

// InitWord sets a word's initial value without provenance (program load).
func (m *Memory) InitWord(addr prog.Word, v float64) {
	m.words[addr] = v
}

// CheckFresh panics unless the supplied value matches the authoritative
// word. It is the staleness oracle used to verify that regular reads and
// Time-Read hits never return stale data; a failure is a compiler-marking
// or protocol soundness bug, which must abort the experiment rather than
// silently corrupt it.
func (m *Memory) CheckFresh(addr prog.Word, got float64, proc int, context string) {
	want := m.words[addr]
	if got != want {
		panic(fmt.Sprintf("memory: STALE READ by P%d at word %d: got %v, want %v (%s; last write by P%d at epoch %d)",
			proc, addr, got, want, context, m.LastWriter(addr), m.LastWriteEpoch(addr)))
	}
}

// Snapshot copies the current contents (for end-of-run comparisons).
func (m *Memory) Snapshot() []float64 {
	out := make([]float64, len(m.words))
	copy(out, m.words)
	return out
}
