package vmm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// patByte is the byte stored at file offset o by patternFile.
func patByte(o int64) byte { return byte(o) ^ byte(o>>8)*7 ^ byte(o>>16)*13 }

// patternFile creates a WineFS file of n bytes holding patByte at every
// offset, written in one store so each whole 2MiB chunk is backed by one
// aligned extent (hugepage-eligible) and a partial tail chunk is not.
func patternFile(t *testing.T, n int64) vfs.File {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(128<<20), winefs.Options{CPUs: 2, Mode: vfs.Strict})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(ctx, "/pat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = patByte(int64(i))
	}
	if _, err := f.WriteAt(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMappingReadAllocationFree pins the mapped load path allocation-free:
// a read into a caller's stack array must not move the array to the heap
// (the buffer never reaches the store path) and must allocate nothing on
// the way to the device, on a hugepage chunk and on a base-page chunk.
func TestMappingReadAllocationFree(t *testing.T) {
	const size = 2<<20 + 64<<10 // one huge chunk, a base-page tail
	f := patternFile(t, size)
	ctx := sim.NewCtx(1, 0)
	m, err := Map(ctx, f, 0, Config{Mode: ModeShared, MapFullFile: true, Preload: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)
	if base, huge := m.MappedPages(); huge != 1 || base != 16 {
		t.Fatalf("mapped pages: %d base, %d huge; want 16 base, 1 huge", base, huge)
	}
	for _, c := range []struct {
		name string
		off  int64
	}{{"huge", 4096 + 40}, {"base", 2<<20 + 8192 + 40}} {
		a8 := testing.AllocsPerRun(100, func() {
			var b [8]byte
			if err := m.Read(ctx, b[:], c.off); err != nil || b[0] != patByte(c.off) {
				t.Fatalf("8-byte read at %d: %v, %#x", c.off, err, b[0])
			}
		})
		a24 := testing.AllocsPerRun(100, func() {
			var b [24]byte
			if err := m.Read(ctx, b[:], c.off); err != nil || b[23] != patByte(c.off+23) {
				t.Fatalf("24-byte read at %d: %v, %#x", c.off, err, b[23])
			}
		})
		if a8 != 0 || a24 != 0 {
			t.Errorf("%s chunk: 8-byte read allocates %.1f, 24-byte read %.1f times per call", c.name, a8, a24)
		}
	}
}

// TestMmapFastPathShootdown races lock-free mapped reads against every
// writer of the translation state: shootdowns (Invalidate), hugepage
// collapses (PromoteChunk), window slides and finally Close. Every read
// must return the file's bytes or ErrClosed, and no read that starts
// after Close returns may succeed.
func TestMmapFastPathShootdown(t *testing.T) {
	const (
		size    = 8<<20 + 64<<10 // four huge chunks and a base-page tail
		budget  = 4 << 20        // two windows' worth of slides
		readers = 4
		rounds  = 200
	)
	f := patternFile(t, size)
	ctx := sim.NewCtx(1, 0)
	v, err := Map(ctx, f, 0, Config{Mode: ModeShared, AddressBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	prober := v.b.(vfs.HugeProber)

	var closed atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rctx := sim.NewCtx(10+r, r)
			rng := sim.NewRand(uint64(r) + 1)
			var b [24]byte
			for i := 0; ; i++ {
				// Mostly the first window, sometimes the tail: reads
				// outside the current window slide it.
				lim := int64(budget)
				if i%64 == 0 {
					lim = size
				}
				off := rng.Int63n(lim - int64(len(b)))
				n := 8 + 16*(i&1)
				after := closed.Load()
				err := v.Read(rctx, b[:n], off)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("reader %d: read at %d: %v", r, off, err)
					return
				}
				if after {
					t.Errorf("reader %d: read at %d succeeded after Close returned", r, off)
					return
				}
				for j := 0; j < n; j++ {
					if want := patByte(off + int64(j)); b[j] != want {
						t.Errorf("reader %d: byte %d = %#x, want %#x", r, off+int64(j), b[j], want)
						return
					}
				}
			}
		}(r)
	}

	var writers sync.WaitGroup
	shooter := func(id int, step func(c *sim.Ctx, w *window)) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			c := sim.NewCtx(id, 0)
			for i := 0; i < rounds; i++ {
				if w := v.win.Load(); w != nil {
					step(c, w)
				}
			}
		}()
	}
	shooter(2, func(_ *sim.Ctx, w *window) { w.m.Invalidate() })
	shooter(3, func(c *sim.Ctx, w *window) {
		for off := int64(0); off+mmu.HugePage <= w.m.Len(); off += mmu.HugePage {
			prober.ProbeHuge(w.base+off, func(phys int64) { w.m.PromoteChunk(c, off, phys) })
		}
	})
	shooter(4, func(c *sim.Ctx, _ *window) {
		var b [8]byte
		_ = v.Read(c, b[:], size-8)
	})
	writers.Wait()
	if err := v.Close(ctx); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	wg.Wait()
}
