package main

import (
	"fmt"

	"repro/internal/apps/part"
	"repro/internal/fstest"
	"repro/internal/geriatrix"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// part-aged-*: a P-ART pool on a file system aged by Geriatrix, then a
// closed loop of hot-set lookups mixed with inserts of new keys, on one
// driver goroutine. Both file systems get the same generated inputs.
const (
	partCPUs     = 2
	partDevice   = 512 << 20
	partAgeUtil  = 0.75
	partAgeChurn = 0.5
	// partAgeSeed fixes the aging run: every seed measures the same aged
	// image, and the seed drives the keys and the op stream. (A seeded
	// aging run changes the image's metadata footprint by up to 1.7x,
	// which moved peak RSS and set-up time more than any input did.)
	partAgeSeed    = 101
	partPool       = 24 << 20
	partLoadKeys   = 64000
	partHotDivisor = 8 // hot set = first 1/8 of the loaded keys
	partWindowOps  = 50000
	partInserts    = partWindowOps / 50 // 2% of a window's ops insert a new key
	// partInsertMax bounds the pool bytes one insert can take (a leaf, a
	// chain of Node4s and a grown Node256), for the capacity check.
	partInsertMax = 4096
)

// mix64 is a bijection on uint64 (the murmur3 finalizer), so distinct
// indices give distinct keys.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// partValue is the value stored at key; lookups check it.
func partValue(key uint64) uint64 { return key*0x9e3779b97f4a7c15 + 1 }

type partOp struct {
	key    uint64
	insert bool
}

type partWorkload struct {
	fsName string
	seed   uint64
	// inputs
	keys []uint64 // loaded at set-up
	hot  []uint64
	next uint64 // index of the next new key

	dev      *pmem.Device
	fs       vfs.FS
	tree     *part.Tree
	setupCtx *sim.Ctx
	d        *driver
	inserted []uint64
}

func newPartWorkload(fsName string, seed uint64) *partWorkload {
	w := &partWorkload{fsName: fsName, seed: seed}
	w.keys = make([]uint64, partLoadKeys)
	for i := range w.keys {
		w.keys[i] = w.key(uint64(i))
	}
	w.hot = w.keys[:partLoadKeys/partHotDivisor]
	return w
}

func (w *partWorkload) key(i uint64) uint64 { return mix64(i + w.seed<<40) }

func (w *partWorkload) release() {
	if w.dev != nil {
		w.dev.Release()
	}
	w.dev, w.fs, w.tree, w.d, w.inserted = nil, nil, nil, nil, nil
}

func (w *partWorkload) setup(r *run) error {
	w.next = partLoadKeys
	ctx := sim.NewCtx(1, 0)
	w.setupCtx = ctx
	d := r.newDriver(ctx)
	maker, ok := fstest.ByName(w.fsName, partCPUs)
	if !ok {
		return fmt.Errorf("unknown file system %q", w.fsName)
	}
	w.dev = pmem.New(partDevice)
	return d.call("setup", -1, func() error {
		if err := d.call("mkfs", -1, func() (err error) {
			w.fs, err = maker.Make(ctx, w.dev)
			return err
		}); err != nil {
			return fmt.Errorf("mkfs: %w", err)
		}
		ager := geriatrix.New(w.fs, geriatrix.Config{
			TargetUtil: partAgeUtil, ChurnFactor: partAgeChurn, Seed: partAgeSeed,
		})
		if err := d.call("geriatrix.Ager.Run", -1, func() error {
			_, err := ager.Run(ctx)
			return err
		}); err != nil {
			return fmt.Errorf("age: %w", err)
		}
		// part.New creates and fallocates the pool file, then maps and
		// prefaults it through vmm.Map.
		if err := d.call("part.New", -1, func() (err error) {
			w.tree, err = part.New(ctx, w.fs, "/part.pool", partPool)
			return err
		}); err != nil {
			return fmt.Errorf("part pool: %w", err)
		}
		return d.call("part.load", -1, func() error {
			for _, k := range w.keys {
				if err := w.tree.Insert(ctx, k, partValue(k)); err != nil {
					return fmt.Errorf("load: %w", err)
				}
			}
			return nil
		})
	})
}

func (w *partWorkload) ops(win int) []partOp {
	rng := sim.NewRand(w.seed*0x9e3779b97f4a7c15 + uint64(win) + 7)
	ops := make([]partOp, partWindowOps)
	for i := range ops {
		if i < partInserts {
			ops[i] = partOp{key: w.key(w.next), insert: true}
			w.next++
		} else {
			ops[i] = partOp{key: w.hot[rng.Intn(len(w.hot))]}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (w *partWorkload) window(r *run, win int) (int64, int64, error) {
	if w.d == nil { // the first window on this state
		mctx := sim.NewCtx(2, 0)
		mctx.AdvanceTo(w.setupCtx.Now())
		w.d = r.newDriver(mctx)
	}
	ops := w.ops(win)
	d, ctx, tree := w.d, w.d.ctx, w.tree
	d.startWindow(win == 0)
	v0 := ctx.Now()
	err := d.call("window", -1, func() error {
		for _, o := range ops {
			key := o.key
			if o.insert {
				if d.op("part.Insert", func() error { return tree.Insert(ctx, key, partValue(key)) }) {
					w.inserted = append(w.inserted, key)
				}
				continue
			}
			d.op("part.Lookup", func() error {
				v, ok, err := tree.Lookup(ctx, key)
				if err != nil {
					return err
				}
				if !ok || v != partValue(key) {
					return fmt.Errorf("key %#x: %w", key, errMismatch)
				}
				return nil
			})
		}
		return nil
	})
	return int64(len(ops)), ctx.Now() - v0, err
}

func (w *partWorkload) more() bool {
	return w.tree.UsedBytes()+partInserts*partInsertMax <= partPool
}

func (w *partWorkload) snapshot() snapshot {
	s := snapshot{now: w.setupCtx.Now(), counters: *w.setupCtx.Counters}
	if w.d != nil {
		s.counters.Add(w.d.ctx.Counters)
		if n := w.d.ctx.Now(); n > s.now {
			s.now = n
		}
	}
	return s
}

func (w *partWorkload) hugeCoverage() float64 {
	huge, total := w.tree.Mapping().FaultedChunks()
	if total == 0 {
		return 1
	}
	return float64(huge) / float64(total)
}

func (w *partWorkload) model() *pmem.CostModel { return w.dev.Model() }

// finish looks up every key the measured phase inserted and every hot key,
// then audits a WineFS image.
func (w *partWorkload) finish(r *run) error {
	ctx := sim.NewCtx(3, 0)
	ctx.AdvanceTo(w.snapshot().now)
	d := r.newDriver(ctx)
	check := func(keys []uint64) {
		for _, k := range keys {
			v, ok, err := w.tree.Lookup(ctx, k)
			if err != nil || !ok || v != partValue(k) {
				d.fail(fmt.Errorf("final lookup of %#x: ok=%v err=%v", k, ok, err))
			}
		}
	}
	check(w.inserted)
	check(w.hot)
	if fs, ok := w.fs.(*winefs.FS); ok {
		return d.call("winefs.FS.Audit", -1, func() error { return fs.Audit(ctx) })
	}
	return nil
}

func (w *partWorkload) hostThreads() int { return 1 }
