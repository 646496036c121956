package fsbase_test

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// fragmentedExtents is the extent count of the benchmark file: the aged
// ext4-DAX P-ART pool fragments into about this many 4KiB extents.
const fragmentedExtents = 6144

// assertSublinear fails the benchmark when op on a fragmentedExtents-
// extent file costs more than 8x the same op on a 96-extent file. A
// whole-list walk makes that ratio about 64; a binary search keeps it
// near 1. Run via `make bench-engine`, this is what catches a path that
// goes back to O(n).
func assertSublinear(b *testing.B, setup func(tb testing.TB, blocks int64) func(i int)) {
	if b.N < 1000 {
		return
	}
	timeOps := func(op func(i int)) time.Duration {
		start := time.Now()
		for i := 0; i < 20000; i++ {
			op(i)
		}
		return time.Since(start)
	}
	big := timeOps(setup(b, fragmentedExtents))
	small := timeOps(setup(b, 96))
	if big > 8*small {
		b.Fatalf("op on a %d-extent file takes %v per 20000 ops, %.1fx a 96-extent file: the path scans the whole extent list",
			fragmentedExtents, big, float64(big)/float64(small))
	}
}

// msyncOp returns an op that msyncs a 16-block window of a fragmented
// file, walking the window across the file.
func msyncOp(tb testing.TB, blocks int64) func(i int) {
	_, f := fragmentedFile(tb, blocks, 1)
	ctx := sim.NewCtx(1, 0)
	return func(i int) {
		off := int64(i) % (blocks - 16) * bs
		if err := f.MsyncRange(ctx, off, 16*bs); err != nil {
			tb.Fatal(err)
		}
	}
}

// faultOp returns an op that faults the pages of a fragmented, fallocated
// file in order, each paying ext4-DAX's fault-time zeroing; after the
// last page the file's unwritten layout is restored (untimed in the
// benchmark) and the walk starts over.
func faultOp(tb testing.TB, blocks int64) func(i int) {
	_, f := fragmentedFile(tb, blocks, 1)
	orig := f.Entries()
	ctx := sim.NewCtx(1, 0)
	b, _ := tb.(*testing.B)
	return func(i int) {
		p := int64(i) % blocks
		if p == 0 && i > 0 {
			if b != nil {
				b.StopTimer()
			}
			f.SetEntries(orig)
			if b != nil {
				b.StartTimer()
			}
		}
		if _, err := f.Fault(ctx, p*bs); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkMsyncFragmented: msync of a small range of a 6144-extent
// file. It must stay O(log n) and allocation-free.
func BenchmarkMsyncFragmented(b *testing.B) {
	op := msyncOp(b, fragmentedExtents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	assertSublinear(b, msyncOp)
}

// BenchmarkPrefaultFragmented: page-by-page prefault of a 6144-extent
// fallocated file (fault-time zeroing splits nothing here, each extent
// being one page, but every fault resolves through the map's view).
func BenchmarkPrefaultFragmented(b *testing.B) {
	op := faultOp(b, fragmentedExtents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	assertSublinear(b, faultOp)
}
