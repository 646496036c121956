package extmap

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mmu"
)

type ent = Entry[int]

// refMap is the naive reference model: an unsorted-then-sorted slice
// updated by whole-list loops, the way the file systems kept their extent
// lists before the shared map.
type refMap []ent

func (r refMap) lookup(fileBlk int64) (phys, run int64, v int, ok bool) {
	for _, e := range r {
		if fileBlk >= e.FileBlk && fileBlk < e.End() {
			return e.Blk + fileBlk - e.FileBlk, e.End() - fileBlk, e.Val, true
		}
	}
	return 0, 0, 0, false
}

func (r refMap) nextStart(fileBlk, max int64) int64 {
	best := max
	for _, e := range r {
		if e.FileBlk > fileBlk && e.FileBlk < best {
			best = e.FileBlk
		}
	}
	return best
}

func (r refMap) rangeOf(lo, hi int64) []ent {
	var out []ent
	for _, e := range r {
		s, t := max(e.FileBlk, lo), min(e.End(), hi)
		if s < t {
			out = append(out, ent{FileBlk: s, Blk: e.Blk + s - e.FileBlk, Len: t - s, Val: e.Val})
		}
	}
	return out
}

func (r refMap) insert(e ent) refMap {
	for i := range r {
		p := &r[i]
		if p.End() == e.FileBlk && p.Blk+p.Len == e.Blk && p.Val == e.Val {
			p.Len += e.Len
			return r
		}
	}
	return sortRef(append(r, e))
}

func (r refMap) mark(lo, hi int64, pred func(int) bool, v int) (refMap, bool) {
	var out refMap
	changed := false
	for _, e := range r {
		if !pred(e.Val) || e.End() <= lo || e.FileBlk >= hi {
			out = append(out, e)
			continue
		}
		changed = true
		s, t := max(e.FileBlk, lo), min(e.End(), hi)
		if e.FileBlk < s {
			out = append(out, ent{FileBlk: e.FileBlk, Blk: e.Blk, Len: s - e.FileBlk, Val: e.Val})
		}
		out = append(out, ent{FileBlk: s, Blk: e.Blk + s - e.FileBlk, Len: t - s, Val: v})
		if t < e.End() {
			out = append(out, ent{FileBlk: t, Blk: e.Blk + t - e.FileBlk, Len: e.End() - t, Val: e.Val})
		}
	}
	return out, changed
}

func (r refMap) replace(lo, hi int64, repl []ent) (refMap, []ent) {
	var keep refMap
	var removed []ent
	for _, e := range r {
		if e.End() <= lo || e.FileBlk >= hi {
			keep = append(keep, e)
			continue
		}
		s, t := max(e.FileBlk, lo), min(e.End(), hi)
		removed = append(removed, ent{FileBlk: s, Blk: e.Blk + s - e.FileBlk, Len: t - s, Val: e.Val})
		if e.FileBlk < s {
			keep = append(keep, ent{FileBlk: e.FileBlk, Blk: e.Blk, Len: s - e.FileBlk, Val: e.Val})
		}
		if t < e.End() {
			keep = append(keep, ent{FileBlk: t, Blk: e.Blk + t - e.FileBlk, Len: e.End() - t, Val: e.Val})
		}
	}
	return sortRef(append(keep, repl...)), removed
}

func sortRef(r refMap) refMap {
	sort.Slice(r, func(i, j int) bool { return r[i].FileBlk < r[j].FileBlk })
	return r
}

// checkInvariants verifies sortedness, disjointness, non-emptiness and
// that the live view equals a from-scratch rebuild.
func checkInvariants(t *testing.T, step int, m *Map[int], ref refMap) {
	t.Helper()
	got := m.All()
	for i, e := range got {
		if e.Len <= 0 {
			t.Fatalf("step %d: empty entry %d: %+v", step, i, e)
		}
		if i > 0 && got[i-1].End() > e.FileBlk {
			t.Fatalf("step %d: entries %d,%d unsorted or overlapping: %+v %+v", step, i-1, i, got[i-1], e)
		}
	}
	if len(got) != len(ref) || (len(ref) > 0 && !reflect.DeepEqual([]ent(got), []ent(ref))) {
		t.Fatalf("step %d: entries diverge from reference\n got %+v\nwant %+v", step, got, ref)
	}
	fresh := &Map[int]{Hidden: m.Hidden}
	fresh.Reset(append([]ent(nil), got...))
	if !sameExtents(m.View(), fresh.View()) {
		t.Fatalf("step %d: patched view diverges from rebuild\n got %+v\nwant %+v", step, m.View(), fresh.View())
	}
}

func sameExtents(a, b []mmu.Extent) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// gapAt returns a free run [s, s+n) in the reference, or ok=false.
func gapAt(rng *rand.Rand, ref refMap, span int64) (int64, int64, bool) {
	for try := 0; try < 20; try++ {
		s := rng.Int63n(span)
		if _, _, _, ok := ref.lookup(s); ok {
			continue
		}
		end := ref.nextStart(s, span)
		n := 1 + rng.Int63n(min(end-s, 8))
		return s, n, true
	}
	return 0, 0, false
}

func TestMapMatchesReference(t *testing.T) {
	const span = 256
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &Map[int]{}
		if seed%2 == 0 {
			// Physical blocks at or past 1<<20 are "slow tier": never in
			// the view.
			m.Hidden = func(blk int64) bool { return blk >= 1<<20 }
		}
		var ref refMap
		nextPhys := int64(0)
		phys := func(n int64) int64 {
			// Mostly contiguous with the previous allocation, so merges and
			// physically contiguous neighbours are common.
			switch rng.Intn(4) {
			case 0:
				nextPhys += rng.Int63n(64) + 1
			case 1:
				if m.Hidden != nil {
					nextPhys = 1<<20 + rng.Int63n(1<<10)
				}
			}
			p := nextPhys
			nextPhys += n
			return p
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(7); op {
			case 0, 1: // insert with merge
				s, n, ok := gapAt(rng, ref, span)
				if !ok {
					continue
				}
				e := ent{FileBlk: s, Blk: phys(n), Len: n, Val: rng.Intn(2)}
				ref = ref.insert(e)
				i := m.Insert(e)
				if c := m.At(i); s < c.FileBlk || s >= c.End() {
					t.Fatalf("seed %d step %d: Insert returned %d (%+v), not covering %d", seed, step, i, c, s)
				}
			case 2: // split: mark a sub-range
				lo := rng.Int63n(span)
				hi := lo + 1 + rng.Int63n(32)
				pred := func(v int) bool { return v == 1 }
				var want bool
				ref, want = ref.mark(lo, hi, pred, 0)
				if got := m.Mark(lo, hi, pred, 0); got != want {
					t.Fatalf("seed %d step %d: Mark changed=%v, reference %v", seed, step, got, want)
				}
			case 3: // replace with fresh extents
				lo := rng.Int63n(span)
				hi := lo + 1 + rng.Int63n(24)
				var repl []ent
				for b := lo; b < hi; {
					n := 1 + rng.Int63n(hi-b)
					if rng.Intn(3) > 0 {
						repl = append(repl, ent{FileBlk: b, Blk: phys(n), Len: n, Val: rng.Intn(2)})
					}
					b += n
				}
				var want []ent
				ref, want = ref.replace(lo, hi, repl)
				got := m.Replace(lo, hi, repl, nil)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d step %d: Replace removed %+v, reference %+v", seed, step, got, want)
				}
			case 4: // truncate
				if rng.Intn(4) > 0 {
					continue
				}
				keep := rng.Int63n(span)
				var want []ent
				ref, want = ref.replace(keep, math.MaxInt64, nil)
				got := m.Replace(keep, math.MaxInt64, nil, nil)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d step %d: truncate removed %+v, reference %+v", seed, step, got, want)
				}
			case 5: // payload-only update through Val
				if m.Len() == 0 {
					continue
				}
				i := rng.Intn(m.Len())
				*m.Val(i) ^= 1
				ref[i].Val ^= 1
			case 6: // whole-entry Set keeping the file range
				if m.Len() == 0 {
					continue
				}
				i := rng.Intn(m.Len())
				e := m.At(i)
				e.Blk = phys(e.Len)
				m.Set(i, e)
				ref[i] = e
			}
			checkInvariants(t, step, m, ref)
			// Point lookups, next-start and range walks.
			for q := 0; q < 8; q++ {
				b := rng.Int63n(span + 8)
				p1, r1, v1, ok1 := m.Lookup(b)
				p2, r2, v2, ok2 := ref.lookup(b)
				if ok1 != ok2 || p1 != p2 || r1 != r2 || v1 != v2 {
					t.Fatalf("seed %d step %d: Lookup(%d) = %d,%d,%d,%v, reference %d,%d,%d,%v", seed, step, b, p1, r1, v1, ok1, p2, r2, v2, ok2)
				}
				max := b + rng.Int63n(64)
				if g, w := m.NextStart(b, max), ref.nextStart(b, max); g != w {
					t.Fatalf("seed %d step %d: NextStart(%d,%d) = %d, reference %d", seed, step, b, max, g, w)
				}
				hi := b + rng.Int63n(48)
				var got []ent
				m.Range(b, hi, func(e ent) bool { got = append(got, e); return true })
				if want := ref.rangeOf(b, hi); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d step %d: Range(%d,%d) = %+v, reference %+v", seed, step, b, hi, got, want)
				}
				i, j := m.Overlap(b, hi)
				if j-i != len(ref.rangeOf(b, hi)) {
					t.Fatalf("seed %d step %d: Overlap(%d,%d) = [%d,%d), reference has %d", seed, step, b, hi, i, j, len(ref.rangeOf(b, hi)))
				}
			}
		}
	}
}

func TestResetSortsAndRebuildsView(t *testing.T) {
	m := &Map[int]{}
	m.Insert(ent{FileBlk: 0, Blk: 10, Len: 2})
	if v := m.View(); len(v) != 1 {
		t.Fatalf("view %+v", v)
	}
	m.Reset([]ent{{FileBlk: 8, Blk: 3, Len: 1}, {FileBlk: 2, Blk: 1, Len: 2}})
	want := []mmu.Extent{
		{FileOff: 2 * blockSize, Phys: 1 * blockSize, Len: 2 * blockSize},
		{FileOff: 8 * blockSize, Phys: 3 * blockSize, Len: blockSize},
	}
	if v := m.View(); !reflect.DeepEqual(v, want) {
		t.Fatalf("view after Reset = %+v, want %+v", v, want)
	}
	ext := m.Extents()
	m.Set(0, ent{FileBlk: 2, Blk: 100, Len: 2})
	if ext[0].Phys != blockSize {
		t.Fatal("Extents returned the live view, not a copy")
	}
}

// fragmented builds a map of n one-block entries, none mergeable.
func fragmented(n int) *Map[int] {
	m := &Map[int]{}
	ents := make([]ent, n)
	for i := range ents {
		ents[i] = ent{FileBlk: int64(i), Blk: int64(2 * i), Len: 1}
	}
	m.Reset(ents)
	return m
}

func TestRangeAllocationFree(t *testing.T) {
	m := fragmented(6144)
	var sum int64
	allocs := testing.AllocsPerRun(100, func() {
		m.Range(3000, 3016, func(e ent) bool { sum += e.Blk; return true })
	})
	if allocs != 0 {
		t.Fatalf("Range allocates %.1f times per call", allocs)
	}
}

func BenchmarkLookupFragmented(b *testing.B) {
	m := fragmented(6144)
	for i := 0; i < b.N; i++ {
		m.Lookup(int64(i % 6144))
	}
}
