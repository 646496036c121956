// Package extmap is the file-block → physical-block extent map shared by
// WineFS and the six baseline file systems.
//
// A Map is a slice of entries sorted by file block, pairwise disjoint and
// non-empty. Point lookups (Find, Lookup), next-start lookups (NextStart)
// and the start of every range walk (Overlap, Range) are binary searches,
// so a walk over k entries costs O(log n + k) however fragmented the file
// is. Every structural change goes through one in-place splice that
// rewrites only the affected entries: the tail of the slice is shifted,
// never rebuilt or re-sorted.
//
// Each entry carries a payload V that the map itself ignores except for
// one rule: Insert merges a new entry into its predecessor only when the
// two are logically and physically contiguous and their payloads are
// equal. The baselines keep their ext4 "unwritten" flag there; WineFS
// keeps the persistent record slot and the tier heat.
//
// The map also owns the mmu form of itself (View), which the fault path
// feeds to mmu.HugeEligible and mmu.PhysAt. The view is patched at the
// same splice that changes the entries, so a fault after a layout change
// never rebuilds it.
//
// A Map is not safe for concurrent mutation; callers hold their inode lock
// (shared for the read-only methods, View included, and exclusive for
// the mutations).
package extmap

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/mmu"
)

// blockSize is the size of one file and physical block (a base page).
const blockSize = mmu.BasePage

// Entry maps file blocks [FileBlk, FileBlk+Len) to physical blocks
// [Blk, Blk+Len).
type Entry[V comparable] struct {
	FileBlk int64
	Blk     int64
	Len     int64
	Val     V
}

// End returns the first file block past the entry.
func (e Entry[V]) End() int64 { return e.FileBlk + e.Len }

// clip returns the part of e inside file blocks [lo, hi).
func (e Entry[V]) clip(lo, hi int64) Entry[V] {
	s, t := max(e.FileBlk, lo), min(e.End(), hi)
	return Entry[V]{FileBlk: s, Blk: e.Blk + (s - e.FileBlk), Len: t - s, Val: e.Val}
}

// Map is a sorted, disjoint extent map with a cached mmu view.
type Map[V comparable] struct {
	ents []Entry[V]

	// Hidden, if set, keeps the entries whose physical start it accepts
	// out of the view: they are not byte-addressable (WineFS's slow tier),
	// so a fault over them must miss. It must depend on Blk alone and be
	// set before the first entry is added.
	Hidden func(blk int64) bool

	view []mmu.Extent
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return len(m.ents) }

// At returns entry i.
func (m *Map[V]) At(i int) Entry[V] { return m.ents[i] }

// Last returns the entry with the highest file block.
func (m *Map[V]) Last() (Entry[V], bool) {
	if len(m.ents) == 0 {
		return Entry[V]{}, false
	}
	return m.ents[len(m.ents)-1], true
}

// Val returns a pointer to entry i's payload, for in-place payload
// updates (heat counters, slot moves). The view does not depend on it.
func (m *Map[V]) Val(i int) *V { return &m.ents[i].Val }

// All returns the entries in file-block order. The slice is the map's
// own storage: callers must not modify it or keep it past the next
// mutation.
func (m *Map[V]) All() []Entry[V] { return m.ents }

// Search returns the index of the first entry ending past fileBlk: the
// entry covering fileBlk, or else the next entry after it.
func (m *Map[V]) Search(fileBlk int64) int {
	return sort.Search(len(m.ents), func(i int) bool { return m.ents[i].End() > fileBlk })
}

// Find returns the index of the entry covering fileBlk.
func (m *Map[V]) Find(fileBlk int64) (int, bool) {
	i := m.Search(fileBlk)
	if i == len(m.ents) || m.ents[i].FileBlk > fileBlk {
		return i, false
	}
	return i, true
}

// Lookup returns the physical block backing fileBlk, the number of
// contiguous blocks from there to the end of its entry, and the entry's
// payload.
func (m *Map[V]) Lookup(fileBlk int64) (phys, run int64, v V, ok bool) {
	i, ok := m.Find(fileBlk)
	if !ok {
		return 0, 0, v, false
	}
	e := m.ents[i]
	return e.Blk + (fileBlk - e.FileBlk), e.End() - fileBlk, e.Val, true
}

// NextStart returns the first entry start strictly after fileBlk, or max
// if there is none below max.
func (m *Map[V]) NextStart(fileBlk, max int64) int64 {
	i := sort.Search(len(m.ents), func(i int) bool { return m.ents[i].FileBlk > fileBlk })
	if i == len(m.ents) || m.ents[i].FileBlk >= max {
		return max
	}
	return m.ents[i].FileBlk
}

// Overlap returns the index range [i, j) of the entries overlapping file
// blocks [lo, hi).
func (m *Map[V]) Overlap(lo, hi int64) (i, j int) {
	i = m.Search(lo)
	if hi <= lo {
		return i, i
	}
	j = i + sort.Search(len(m.ents)-i, func(k int) bool { return m.ents[i+k].FileBlk >= hi })
	return i, j
}

// Range calls fn, in file-block order, with every entry overlapping
// [lo, hi) clipped to that range, until fn returns false.
func (m *Map[V]) Range(lo, hi int64, fn func(e Entry[V]) bool) {
	if hi <= lo {
		return
	}
	for k := m.Search(lo); k < len(m.ents) && m.ents[k].FileBlk < hi; k++ {
		if !fn(m.ents[k].clip(lo, hi)) {
			return
		}
	}
}

// Splice replaces entries [i, j) with repl, which must keep the map
// sorted and disjoint, and patches the view to match. It is the one
// primitive every other mutation goes through.
func (m *Map[V]) Splice(i, j int, repl ...Entry[V]) {
	vi, vj := m.viewIndex(i), m.viewIndex(j)
	m.ents = resize(m.ents, i, j, len(repl))
	copy(m.ents[i:], repl)
	n := 0
	for _, e := range repl {
		if m.mappable(e) {
			n++
		}
	}
	m.view = resize(m.view, vi, vj, n)
	for _, e := range repl {
		if m.mappable(e) {
			m.view[vi] = toMMU(e)
			vi++
		}
	}
}

// Set replaces entry i with e.
func (m *Map[V]) Set(i int, e Entry[V]) { m.Splice(i, i+1, e) }

// Insert adds e, which must overlap no entry, at its sorted position. It
// is merged into its predecessor instead when the two are logically and
// physically contiguous and carry equal payloads. Insert returns the
// index of the entry now covering e.FileBlk.
func (m *Map[V]) Insert(e Entry[V]) int {
	i := m.Search(e.FileBlk)
	if i > 0 {
		if p := m.ents[i-1]; p.End() == e.FileBlk && p.Blk+p.Len == e.Blk && p.Val == e.Val {
			p.Len += e.Len
			m.Set(i-1, p)
			return i - 1
		}
	}
	m.Splice(i, i, e)
	return i
}

// Mark gives the blocks of [lo, hi) whose entry payload satisfies pred
// the payload v, splitting each such entry at lo and hi so that only its
// covered part changes. Entries that fail pred are left whole. Mark
// reports whether any entry changed.
func (m *Map[V]) Mark(lo, hi int64, pred func(V) bool, v V) bool {
	changed := false
	i, j := m.Overlap(lo, hi)
	for k := i; k < j; k++ {
		e := m.ents[k]
		if !pred(e.Val) {
			continue
		}
		changed = true
		var parts [3]Entry[V]
		n := 0
		mid := e.clip(lo, hi)
		if e.FileBlk < mid.FileBlk {
			parts[n] = e.clip(e.FileBlk, mid.FileBlk)
			n++
		}
		mid.Val = v
		parts[n] = mid
		n++
		if mid.End() < e.End() {
			parts[n] = e.clip(mid.End(), e.End())
			n++
		}
		m.Splice(k, k+1, parts[:n]...)
		k += n - 1
		j += n - 1
	}
	return changed
}

// Replace unmaps file blocks [lo, hi), trimming the entries that straddle
// either edge, and maps repl (sorted, disjoint, inside [lo, hi), never
// merged with its neighbours) in their place. The unmapped pieces are
// appended to removed in file-block order, and the extended slice is
// returned. One splice does the whole change.
func (m *Map[V]) Replace(lo, hi int64, repl []Entry[V], removed []Entry[V]) []Entry[V] {
	i, j := m.Overlap(lo, hi)
	if i == j && len(repl) == 0 {
		return removed
	}
	var buf [4]Entry[V]
	parts := buf[:0]
	if i < j {
		if first := m.ents[i]; first.FileBlk < lo {
			parts = append(parts, first.clip(first.FileBlk, lo))
		}
	}
	parts = append(parts, repl...)
	if i < j {
		if last := m.ents[j-1]; last.End() > hi {
			parts = append(parts, last.clip(hi, last.End()))
		}
	}
	for k := i; k < j; k++ {
		removed = append(removed, m.ents[k].clip(lo, hi))
	}
	m.Splice(i, j, parts...)
	return removed
}

// Reset replaces the whole map with ents, sorting them by file block, and
// rebuilds the view. The map takes ownership of the slice.
func (m *Map[V]) Reset(ents []Entry[V]) {
	slices.SortFunc(ents, func(a, b Entry[V]) int { return cmp.Compare(a.FileBlk, b.FileBlk) })
	m.ents = ents
	m.view = nil
	for _, e := range ents {
		if m.mappable(e) {
			m.view = append(m.view, toMMU(e))
		}
	}
}

// View returns the mmu form of the map: one mmu.Extent per entry that
// Hidden does not reject, sorted by FileOff. The slice is the map's own
// storage, patched in place by every mutation: callers must finish with
// it before the lock that guards the map is released (see Extents).
func (m *Map[V]) View() []mmu.Extent { return m.view }

// Extents returns a private copy of the view, safe to keep.
func (m *Map[V]) Extents() []mmu.Extent { return slices.Clone(m.view) }

func (m *Map[V]) mappable(e Entry[V]) bool { return m.Hidden == nil || !m.Hidden(e.Blk) }

// viewIndex returns the view position of entry i: the number of view
// extents that start before it.
func (m *Map[V]) viewIndex(i int) int {
	if m.Hidden == nil {
		return i
	}
	if i == len(m.ents) {
		return len(m.view)
	}
	off := m.ents[i].FileBlk * blockSize
	return sort.Search(len(m.view), func(k int) bool { return m.view[k].FileOff >= off })
}

func toMMU[V comparable](e Entry[V]) mmu.Extent {
	return mmu.Extent{FileOff: e.FileBlk * blockSize, Phys: e.Blk * blockSize, Len: e.Len * blockSize}
}

// resize replaces s[i:j] with n slots (left as they were or zero) by
// shifting the tail, and returns the resized slice.
func resize[T any](s []T, i, j, n int) []T {
	d := n - (j - i)
	switch {
	case d > 0:
		s = slices.Grow(s, d)
		s = s[:len(s)+d]
		copy(s[j+d:], s[j:len(s)-d])
	case d < 0:
		copy(s[j+d:], s[j:])
		clear(s[len(s)+d:])
		s = s[:len(s)+d]
	}
	return s
}
