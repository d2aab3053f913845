package directory

import "math/bits"

// line is one directory entry: a row of the home table (see
// memsys.LineTable). Word 0 holds the state in its low byte and the
// exclusive owner above it; then come the presence set and the replay
// prepass's candidate set (see buildPend), setWords(P) words each, so
// P <= 64 is the one-word case of the same code. The all-zero row is an
// uncached line without sharers.
type line []uint64

// setWords returns the number of 64-bit words a presence set over procs
// processors occupies.
func setWords(procs int) int { return (procs + 63) / 64 }

// lineWords is the row width of a directory over procs processors.
func lineWords(procs int) int { return 1 + 2*setWords(procs) }

func (l line) state() dirState { return dirState(l[0] & 0xff) }

func (l line) owner() int { return int(l[0] >> 8) }

func (l line) set(st dirState, owner int) { l[0] = uint64(st) | uint64(owner)<<8 }

// pres is the line's presence set: the processors the directory
// registered as holding a copy.
func (l line) pres() Set { return Set(l[1 : 1+len(l)/2]) }

// pend is the line's replay candidates this epoch (see buildPend).
func (l line) pend() Set { return Set(l[1+len(l)/2:]) }

// Set is a multi-word presence bitset over processor IDs. It is a view
// into a directory row, not an owning allocation.
type Set []uint64

// Add sets p's bit.
func (s Set) Add(p int) { s[p>>6] |= 1 << uint(p&63) }

// Remove clears p's bit.
func (s Set) Remove(p int) { s[p>>6] &^= 1 << uint(p&63) }

// Has reports whether p's bit is set.
func (s Set) Has(p int) bool { return s[p>>6]&(1<<uint(p&63)) != 0 }

// Count returns the number of members.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset clears every member.
func (s Set) Reset() { clear(s) }

// FirstOther returns the lowest member other than p, or -1 if none. The
// limited-pointer eviction scan uses it to pick the same victim an
// ascending 0..P-1 sweep would.
func (s Set) FirstOther(p int) int {
	for i, w := range s {
		for w != 0 {
			q := i<<6 + bits.TrailingZeros64(w)
			if q != p {
				return q
			}
			w &= w - 1
		}
	}
	return -1
}

// ForEach visits the members in ascending order.
func (s Set) ForEach(fn func(p int)) {
	for i, w := range s {
		for w != 0 {
			fn(i<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
