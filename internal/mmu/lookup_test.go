package mmu

import (
	"math/rand"
	"testing"
)

// linearHugeEligible and linearPhysAt are the whole-list scans that
// HugeEligible and PhysAt replaced, kept as the reference for their
// binary searches.
func linearHugeEligible(extents []Extent, chunkOff int64) (int64, bool) {
	for _, e := range extents {
		if chunkOff >= e.FileOff && chunkOff < e.FileOff+e.Len {
			phys := e.Phys + (chunkOff - e.FileOff)
			if phys%HugePage != 0 || e.FileOff+e.Len < chunkOff+HugePage {
				return 0, false
			}
			return phys, true
		}
	}
	return 0, false
}

func linearPhysAt(extents []Extent, off int64) (int64, bool) {
	for _, e := range extents {
		if off >= e.FileOff && off < e.FileOff+e.Len {
			return e.Phys + (off - e.FileOff), true
		}
	}
	return 0, false
}

// randomExtents returns a sorted, disjoint, page-granular extent list
// with holes, whose lengths and physical bases are biased towards
// hugepage multiples so that eligible chunks occur.
func randomExtents(rng *rand.Rand) []Extent {
	var exts []Extent
	off := int64(rng.Intn(3)) * HugePage
	phys := int64(0)
	for n := rng.Intn(40); n > 0; n-- {
		if rng.Intn(3) == 0 {
			off += int64(rng.Intn(600)+1) * BasePage // hole
		}
		var length int64
		if rng.Intn(2) == 0 {
			length = int64(rng.Intn(4)+1) * HugePage
			phys = (phys + HugePage) / HugePage * HugePage
			if rng.Intn(4) == 0 {
				phys += BasePage // misaligned physical start
			}
		} else {
			length = int64(rng.Intn(700)+1) * BasePage
			phys += int64(rng.Intn(8)) * BasePage
		}
		exts = append(exts, Extent{FileOff: off, Phys: phys, Len: length})
		off += length
		phys += length
	}
	return exts
}

func TestLookupMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 2000; round++ {
		exts := randomExtents(rng)
		var probes []int64
		for _, e := range exts {
			// Extent boundaries, their neighbours, and the chunk edges
			// around them.
			for _, o := range []int64{e.FileOff, e.FileOff + e.Len, e.FileOff - BasePage, e.FileOff + e.Len - BasePage} {
				probes = append(probes, o, o/HugePage*HugePage, (o/HugePage+1)*HugePage-BasePage)
			}
		}
		for k := 0; k < 16; k++ {
			probes = append(probes, int64(rng.Intn(64*PagesPerHuge))*BasePage)
		}
		for _, off := range probes {
			if off < 0 {
				continue
			}
			p1, ok1 := PhysAt(exts, off)
			p2, ok2 := linearPhysAt(exts, off)
			if p1 != p2 || ok1 != ok2 {
				t.Fatalf("round %d: PhysAt(%d) = %d,%v, linear %d,%v; extents %+v", round, off, p1, ok1, p2, ok2, exts)
			}
			chunk := off / HugePage * HugePage
			h1, hok1 := HugeEligible(exts, chunk)
			h2, hok2 := linearHugeEligible(exts, chunk)
			if h1 != h2 || hok1 != hok2 {
				t.Fatalf("round %d: HugeEligible(%d) = %d,%v, linear %d,%v; extents %+v", round, chunk, h1, hok1, h2, hok2, exts)
			}
		}
	}
	if _, ok := PhysAt(nil, 0); ok {
		t.Fatal("PhysAt on an empty list found a page")
	}
}

// BenchmarkPhysAtFragmented resolves pages of a file fragmented into
// 6144 4KiB extents: the binary search keeps it O(log n).
func BenchmarkPhysAtFragmented(b *testing.B) {
	exts := make([]Extent, 6144)
	for i := range exts {
		exts[i] = Extent{FileOff: int64(i) * BasePage, Phys: int64(2*i) * BasePage, Len: BasePage}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := int64(i%6144) * BasePage
		if _, ok := PhysAt(exts, off); !ok {
			b.Fatal("unbacked page")
		}
		HugeEligible(exts, off/HugePage*HugePage)
	}
}
