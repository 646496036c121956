package main

import (
	"bytes"
	"fmt"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// tier-hotspot: a tiered PM+slow WineFS holding a working set of 1.5x its
// PM data capacity in 2 MiB files, then a closed loop of 4 KiB ReadAt and
// WriteAt (90% reads) where 90% of accesses go to 10% of the blocks, with
// a tier-migration pass inline every tierPassEvery ops, after a warm-up.
const (
	tierCPUs       = 2
	tierPM         = 64 << 20
	tierSlow       = 2 * tierPM
	tierFileBytes  = 2 << 20
	tierWorkingSet = 1.5 // multiple of the PM data capacity
	tierOpSize     = 4096
	tierReadPct    = 90
	tierHotPct     = 10 // share of blocks that are hot
	tierHotAccess  = 90 // share of accesses that go to hot blocks
	tierWindowOps  = 50000
	tierWarmupOps  = 20000
	tierPassEvery  = 2000
	tierPassBudget = 4096 // blocks a pass may migrate
	// tierScatter spreads hot ranks over files (prime, so a bijection
	// modulo any smaller file count), so the hot set does not start in the
	// files set-up left on PM.
	tierScatter = 1000003
)

type tierOp struct {
	slot int64
	read bool
}

type tierWorkload struct {
	seed uint64

	dev      *pmem.Device
	slow     *tier.SlowDevice
	fs       *winefs.FS
	files    []vfs.File
	version  []uint32 // per 4 KiB slot: the version last written
	setupCtx *sim.Ctx
	d        *driver // the access thread
	md       *driver // the migration thread
	buf      []byte
	want     []byte
	opsDone  int64
}

func newTierWorkload(seed uint64) *tierWorkload {
	return &tierWorkload{seed: seed, buf: make([]byte, tierOpSize), want: make([]byte, tierOpSize)}
}

func (w *tierWorkload) release() {
	if w.dev != nil {
		w.dev.Release()
		w.slow.Release()
	}
	w.dev, w.slow, w.fs, w.files = nil, nil, nil, nil
}

func (w *tierWorkload) slots() int64 { return int64(len(w.files)) * tierFileBytes / tierOpSize }

func (w *tierWorkload) setup(r *run) error {
	ctx := sim.NewCtx(1, 0)
	w.setupCtx = ctx
	w.opsDone = 0
	d := r.newDriver(ctx)
	w.dev = pmem.New(tierPM)
	w.slow = tier.NewSlow(tier.DefaultSlowConfig(tierSlow))
	return d.call("setup", -1, func() error {
		if err := d.call("mkfs", -1, func() (err error) {
			w.fs, err = winefs.Mkfs(ctx, w.dev, winefs.Options{
				CPUs: tierCPUs, Mode: vfs.Strict, Tier: &winefs.TierOptions{Slow: w.slow},
			})
			return err
		}); err != nil {
			return fmt.Errorf("mkfs: %w", err)
		}
		st, _ := w.fs.TierStats()
		ws := int64(tierWorkingSet * float64(st.PMTotalBlocks*winefs.BlockSize))
		n := int((ws + tierFileBytes - 1) / tierFileBytes)
		w.files = make([]vfs.File, n)
		w.version = make([]uint32, w.slots())
		// Fill: allocations past the PM high-water mark spill to the slow tier.
		if err := d.call("tier.fill", -1, func() error {
			chunk := make([]byte, 1<<20)
			for i := range w.files {
				f, err := w.fs.Create(ctx, fmt.Sprintf("/ts%05d", i))
				if err != nil {
					return err
				}
				w.files[i] = f
				for off := int64(0); off < tierFileBytes; off += int64(len(chunk)) {
					for s := 0; s < len(chunk); s += tierOpSize {
						stamped(chunk[s:s+tierOpSize], uint64(int64(i)*tierFileBytes+off+int64(s))/tierOpSize, 0)
					}
					if _, err := f.WriteAt(ctx, chunk, off); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("fill: %w", err)
		}
		// Warm-up: heat accumulates and the passes converge placement, so
		// the measured windows see the policy's steady state.
		w.d = r.newDriver(sim.NewCtx(97, 0))
		w.md = r.newDriver(sim.NewCtx(98, 0))
		w.d.ctx.AdvanceTo(ctx.Now())
		return d.call("tier.warmup", -1, func() error {
			w.d.tracing, w.md.tracing = false, false
			defer func() { w.d.tracing, w.md.tracing = r.tracing, r.tracing }()
			return w.run(w.genOps(-1, tierWarmupOps))
		})
	})
}

// genOps generates window win's accesses (win -1 is the warm-up).
func (w *tierWorkload) genOps(win, n int) []tierOp {
	rng := sim.NewRand(w.seed*0x9e3779b97f4a7c15 + uint64(win+1)*0xbf58476d1ce4e5b9 + 31)
	nFiles := int64(len(w.files))
	perFile := int64(tierFileBytes / tierOpSize)
	nSlots := w.slots()
	hot := nSlots * tierHotPct / 100
	ops := make([]tierOp, n)
	for i := range ops {
		var rank int64
		if rng.Intn(100) < tierHotAccess {
			rank = rng.Int63n(hot)
		} else {
			rank = hot + rng.Int63n(nSlots-hot)
		}
		file := rank / perFile * tierScatter % nFiles
		ops[i] = tierOp{slot: file*perFile + rank%perFile, read: rng.Intn(100) < tierReadPct}
	}
	return ops
}

// run issues ops on the driver's thread, with a migration pass on the
// migration thread every tierPassEvery ops.
func (w *tierWorkload) run(ops []tierOp) error {
	d, ctx := w.d, w.d.ctx
	for _, o := range ops {
		f := w.files[o.slot*tierOpSize/tierFileBytes]
		off := o.slot * tierOpSize % tierFileBytes
		slot := o.slot
		access := func() error {
			if o.read {
				stamped(w.want, uint64(slot), uint64(w.version[slot]))
				n, err := f.ReadAt(ctx, w.buf, off)
				if err != nil {
					return err
				}
				if n != tierOpSize || !bytes.Equal(w.buf, w.want) {
					return fmt.Errorf("slot %d: %w", slot, errMismatch)
				}
				return nil
			}
			v := w.version[slot] + 1
			stamped(w.buf, uint64(slot), uint64(v))
			if _, err := f.WriteAt(ctx, w.buf, off); err != nil {
				return err
			}
			w.version[slot] = v
			return nil
		}
		name := "winefs.File.WriteAt"
		if o.read {
			name = "winefs.File.ReadAt"
		}
		d.op(name, access)
		w.opsDone++
		if w.opsDone%tierPassEvery == 0 {
			w.md.ctx.AdvanceTo(ctx.Now())
			if err := w.md.call("winefs.FS.TierPass", -1, func() error {
				_, err := w.fs.TierPass(w.md.ctx, winefs.TierPassOptions{MaxMigrateBlocks: tierPassBudget})
				return err
			}); err != nil {
				return fmt.Errorf("tier pass: %w", err)
			}
		}
	}
	return nil
}

func (w *tierWorkload) window(r *run, win int) (int64, int64, error) {
	ops := w.genOps(win, tierWindowOps)
	w.d.startWindow(win == 0)
	v0 := w.d.ctx.Now()
	err := w.d.call("window", -1, func() error { return w.run(ops) })
	return int64(len(ops)), w.d.ctx.Now() - v0, err
}

func (w *tierWorkload) more() bool { return true }

func (w *tierWorkload) snapshot() snapshot {
	s := snapshot{now: w.setupCtx.Now(), counters: *w.setupCtx.Counters}
	for _, ctx := range []*sim.Ctx{w.d.ctx, w.md.ctx} {
		s.counters.Add(ctx.Counters)
		if n := ctx.Now(); n > s.now {
			s.now = n
		}
	}
	return s
}

func (w *tierWorkload) hugeCoverage() float64 { return 1 }

func (w *tierWorkload) model() *pmem.CostModel { return w.dev.Model() }

// finish reads every block back against the last version written to it
// and audits the image.
func (w *tierWorkload) finish(r *run) error {
	ctx := sim.NewCtx(3, 0)
	ctx.AdvanceTo(w.snapshot().now)
	d := r.newDriver(ctx)
	for slot := int64(0); slot < w.slots(); slot++ {
		f := w.files[slot*tierOpSize/tierFileBytes]
		stamped(w.want, uint64(slot), uint64(w.version[slot]))
		n, err := f.ReadAt(ctx, w.buf, slot*tierOpSize%tierFileBytes)
		if err != nil || n != tierOpSize || !bytes.Equal(w.buf, w.want) {
			d.fail(fmt.Errorf("final read of slot %d: %d bytes, err %v", slot, n, err))
		}
	}
	return d.call("winefs.FS.Audit", -1, func() error { return w.fs.Audit(ctx) })
}

func (w *tierWorkload) hostThreads() int { return 1 }
