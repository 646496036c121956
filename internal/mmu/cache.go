package mmu

// assoc is a set-associative LRU array used for both the TLB and the
// last-level cache simulation. The sets live in one flat slice: set s
// owns keys[s*ways : (s+1)*ways], of which the first fill[s] are
// resident, in MRU-first order. assoc is not synchronised; the owning
// AddressSpace serialises every use under its cache-model lock, so one
// access takes that lock once for its TLB and LLC work together.
type assoc struct {
	ways int
	mask uint64
	keys []uint64
	fill []int32
}

// newAssoc builds an array with the given total entry count and way count.
// The set count is rounded down to a power of two (minimum 1).
func newAssoc(entries, ways int) *assoc {
	if ways <= 0 {
		ways = 1
	}
	if entries < ways {
		entries = ways
	}
	nsets := 1
	for nsets*2 <= entries/ways {
		nsets *= 2
	}
	return &assoc{
		ways: ways,
		mask: uint64(nsets - 1),
		keys: make([]uint64, nsets*ways),
		fill: make([]int32, nsets),
	}
}

// mix hashes the key to spread sequential keys across sets while staying
// deterministic.
func mix(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return key
}

// touch looks key up, promoting it to MRU on hit and inserting it (evicting
// the LRU way if needed) on miss. Returns whether the access hit.
func (a *assoc) touch(key uint64) bool {
	si := int(mix(key) & a.mask)
	base := si * a.ways
	n := int(a.fill[si])
	s := a.keys[base : base+n]
	for i, k := range s {
		if k == key {
			// Move to front (MRU).
			copy(s[1:i+1], s[:i])
			s[0] = key
			return true
		}
	}
	if n < a.ways {
		n++
		a.fill[si] = int32(n)
		s = a.keys[base : base+n]
	}
	copy(s[1:], s[:n-1])
	s[0] = key
	return false
}

// touchRun touches n sequential keys (key, key+1, ..., key+n-1), returning
// how many hit. The state changes are exactly those of n individual touch
// calls in the same order; callers use it for the cache lines of one
// contiguous access run.
func (a *assoc) touchRun(key uint64, n int) int {
	hits := 0
	for j := 0; j < n; j++ {
		if a.touch(key + uint64(j)) {
			hits++
		}
	}
	return hits
}

// flushAll empties the array (e.g. TLB shootdown on munmap).
func (a *assoc) flushAll() {
	clear(a.fill)
}

// size returns the number of resident entries.
func (a *assoc) size() int {
	n := 0
	for _, f := range a.fill {
		n += int(f)
	}
	return n
}
