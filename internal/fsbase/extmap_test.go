package fsbase_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ext4dax"
	"repro/internal/fsbase"
	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

const bs = fsbase.BlockSize

// fragmentedFile builds an ext4-DAX image whose free space is shredded
// into holes of 1 to maxHole blocks (two files appended in lockstep until
// the device is full, then one deleted) and fallocates `blocks` blocks
// into it: the result is a file of unwritten extents as short as the
// holes (`blocks` one-block extents when maxHole is 1). The construction
// is deterministic, so two calls give identical twins.
func fragmentedFile(t testing.TB, blocks, maxHole int64) (*fsbase.FS, *fsbase.File) {
	t.Helper()
	devBlocks := 2*blocks + 256
	fs := ext4dax.New(pmem.New(devBlocks * bs))
	ctx := sim.NewCtx(1, 0)
	a, err := fs.Create(ctx, "/a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.Create(ctx, "/b")
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, bs)
	for round, full := int64(0), false; !full; round++ {
		hole := make([]byte, (1+round%maxHole)*bs)
		for _, w := range []struct {
			f vfs.File
			p []byte
		}{{a, page}, {b, hole}} {
			if _, err := w.f.Append(ctx, w.p); err != nil {
				if !errors.Is(err, vfs.ErrNoSpace) {
					t.Fatal(err)
				}
				full = true
				break
			}
		}
	}
	if err := fs.Unlink(ctx, "/b"); err != nil {
		t.Fatal(err)
	}
	c, err := fs.Create(ctx, "/c")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fallocate(ctx, 0, blocks*bs); err != nil {
		t.Fatal(err)
	}
	return fs, c.(*fsbase.File)
}

// refMsync is the whole-list msync walk the extent map replaced.
func refMsync(ctx *sim.Ctx, dev *pmem.Device, f *fsbase.File, off, n int64) {
	startBlk := off / bs
	endBlk := (off + n + bs - 1) / bs
	for _, e := range f.Entries() {
		lo, hi := max(e.FileBlk, startBlk), min(e.End(), endBlk)
		if lo < hi {
			dev.Flush(ctx, (e.Blk+lo-e.FileBlk)*bs, (hi-lo)*bs)
		}
	}
	dev.Fence(ctx)
}

// refFault is the pre-extent-map fault path for space that is already
// allocated: rebuild the mmu view, scan it linearly, and split unwritten
// extents with a whole-list copy.
func refFault(ctx *sim.Ctx, dev *pmem.Device, f *fsbase.File, pageOff int64) (mmu.FaultResult, bool) {
	ents := f.Entries()
	var view []mmu.Extent
	for _, e := range ents {
		view = append(view, mmu.Extent{FileOff: e.FileBlk * bs, Phys: e.Blk * bs, Len: e.Len * bs})
	}
	zero := func(blk, count int64) bool {
		var out []fsbase.Ext
		hit := false
		for _, e := range ents {
			if !e.Val || e.End() <= blk || e.FileBlk >= blk+count {
				out = append(out, e)
				continue
			}
			hit = true
			s, t := max(e.FileBlk, blk), min(e.End(), blk+count)
			if e.FileBlk < s {
				out = append(out, fsbase.Ext{FileBlk: e.FileBlk, Blk: e.Blk, Len: s - e.FileBlk, Val: true})
			}
			out = append(out, fsbase.Ext{FileBlk: s, Blk: e.Blk + s - e.FileBlk, Len: t - s})
			if t < e.End() {
				out = append(out, fsbase.Ext{FileBlk: t, Blk: e.Blk + t - e.FileBlk, Len: e.End() - t, Val: true})
			}
		}
		if hit {
			f.SetEntries(out)
		}
		return hit
	}
	chunkOff := pageOff / mmu.HugePage * mmu.HugePage
	for _, e := range view {
		if chunkOff >= e.FileOff && chunkOff < e.FileOff+e.Len {
			phys := e.Phys + chunkOff - e.FileOff
			if phys%mmu.HugePage == 0 && e.FileOff+e.Len >= chunkOff+mmu.HugePage {
				if zero(chunkOff/bs, mmu.PagesPerHuge) {
					dev.Zero(ctx, phys, mmu.HugePage)
				}
				return mmu.FaultResult{Huge: true, Phys: phys}, true
			}
			break
		}
	}
	for _, e := range view {
		if pageOff >= e.FileOff && pageOff < e.FileOff+e.Len {
			phys := e.Phys + pageOff - e.FileOff
			if zero(pageOff/bs, 1) {
				dev.Zero(ctx, phys, bs)
			}
			return mmu.FaultResult{Phys: phys}, true
		}
	}
	return mmu.FaultResult{}, false
}

// TestExtentMapMatchesLinearWalk drives msync and faults over random
// ranges of a fragmented ext4-DAX file and checks that the extent-map
// paths issue exactly the charges of the old linear walks: same
// perf.Counters, same virtual clock, same resulting extents.
func TestExtentMapMatchesLinearWalk(t *testing.T) {
	const blocks = 1024
	_, fA := fragmentedFile(t, blocks, 4)
	fsB, fB := fragmentedFile(t, blocks, 4)
	initial := len(fA.Entries())
	if initial < blocks/4 {
		t.Fatalf("file has only %d extents; the set-up failed to fragment it", initial)
	}
	if !reflect.DeepEqual(fA.Entries(), fB.Entries()) {
		t.Fatal("twin images differ")
	}
	ctxA, ctxB := sim.NewCtx(1, 0), sim.NewCtx(1, 0)
	rng := rand.New(rand.NewSource(3))
	size := int64(blocks * bs)
	for step := 0; step < 600; step++ {
		if rng.Intn(2) == 0 {
			off := rng.Int63n(size)
			n := 1 + rng.Int63n(64*bs)
			if err := fA.MsyncRange(ctxA, off, n); err != nil {
				t.Fatal(err)
			}
			refMsync(ctxB, fsB.Device(), fB, off, n)
		} else {
			pageOff := rng.Int63n(size/bs) * bs
			got, err := fA.Fault(ctxA, pageOff)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := refFault(ctxB, fsB.Device(), fB, pageOff)
			if !ok || got != want {
				t.Fatalf("step %d: Fault(%d) = %+v, reference %+v (found %v)", step, pageOff, got, want, ok)
			}
		}
		if ctxA.Now() != ctxB.Now() || *ctxA.Counters != *ctxB.Counters {
			t.Fatalf("step %d: charges diverge: clock %d vs %d\n got %+v\nwant %+v",
				step, ctxA.Now(), ctxB.Now(), *ctxA.Counters, *ctxB.Counters)
		}
		if !reflect.DeepEqual(fA.Entries(), fB.Entries()) {
			t.Fatalf("step %d: extents diverge", step)
		}
	}
	if reflect.DeepEqual(*ctxA.Counters, *sim.NewCtx(1, 0).Counters) {
		t.Fatal("no charges recorded")
	}
	if len(fA.Entries()) <= initial {
		t.Fatal("no fault split an unwritten extent; the test does not cover splitting")
	}
}

// TestMsyncAllocationFree pins the msync path on a fragmented file to
// zero host allocations.
func TestMsyncAllocationFree(t *testing.T) {
	_, f := fragmentedFile(t, 512, 1)
	ctx := sim.NewCtx(1, 0)
	if a := testing.AllocsPerRun(100, func() { _ = f.MsyncRange(ctx, 100*bs, 16*bs) }); a != 0 {
		t.Fatalf("MsyncRange allocates %.1f times per call", a)
	}
}
