package main

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/fileserver"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// served-mix: a fresh strict-mode WineFS served over the in-memory
// fileserver pipe to two clients, each a closed loop of create, append,
// fsync, read-back, close, rename (re-open and re-read), unlink and stat
// with byte-exact read-back. Each client deletes its files from servedKeep
// iterations back, so the live set stays bounded and the loop is steady.
const (
	servedCPUs    = 2
	servedDevice  = 2 << 30
	servedClients = 2
	servedIters   = 3500 // loop iterations per client per window (~7 ops each)
	servedKeep    = 512  // live files per client
	servedMeanKB  = 16
)

// servedIter is one generated loop iteration.
type servedIter struct {
	size                  int
	fsync, rename, unlink bool
}

type servedClient struct {
	id     int
	d      *driver
	fs     *fileserver.Client
	rng    *sim.Rand
	next   int        // index of the next iteration
	live   []liveFile // ring of recent files; name "" once unlinked
	buf    []byte
	rbuf   []byte
	inputs []servedIter
}

// liveFile is a file a client created in iteration i, under its current name.
type liveFile struct {
	name string
	i    int
}

type servedWorkload struct {
	seed     uint64
	dev      *pmem.Device
	fs       *winefs.FS
	srv      *fileserver.Server
	pl       *fileserver.PipeListener
	serveErr chan error
	setupCtx *sim.Ctx
	clients  []*servedClient
}

func newServedWorkload(seed uint64) *servedWorkload { return &servedWorkload{seed: seed} }

// servedData fills p with the content of file i of a client; read-back
// compares against it byte for byte.
func servedData(p []byte, client, i int) { stamped(p, uint64(client)<<32|uint64(i), uint64(len(p))) }

func (w *servedWorkload) release() {
	for _, c := range w.clients {
		if c.fs != nil {
			c.fs.Close()
		}
	}
	w.clients = nil
	if w.srv != nil {
		w.srv.Shutdown()
		<-w.serveErr
		w.srv = nil
	}
	if w.dev != nil {
		w.dev.Release()
		w.dev = nil
	}
}

func (w *servedWorkload) setup(r *run) error {
	ctx := sim.NewCtx(1, 0)
	w.setupCtx = ctx
	d := r.newDriver(ctx)
	w.dev = pmem.New(servedDevice)
	return d.call("setup", -1, func() error {
		if err := d.call("mkfs", -1, func() (err error) {
			w.fs, err = winefs.Mkfs(ctx, w.dev, winefs.Options{CPUs: servedCPUs, Mode: vfs.Strict})
			return err
		}); err != nil {
			return fmt.Errorf("mkfs: %w", err)
		}
		w.srv = fileserver.New(w.fs, fileserver.Config{CPUs: servedCPUs, BaseNS: ctx.Now()})
		w.pl = fileserver.NewPipeListener()
		w.serveErr = make(chan error, 1)
		srv, pl := w.srv, w.pl
		go func() { w.serveErr <- srv.Serve(pl) }()
		for i := 0; i < servedClients; i++ {
			cctx := sim.NewCtx(5000+i, i%servedCPUs)
			cctx.AdvanceTo(ctx.Now())
			c := &servedClient{
				id:   i,
				d:    r.newDriver(cctx),
				rng:  sim.NewRand(w.seed*0x9e3779b97f4a7c15 + uint64(i)*2654435761 + 17),
				live: make([]liveFile, servedKeep),
				buf:  make([]byte, 3*servedMeanKB<<9),
				rbuf: make([]byte, 3*servedMeanKB<<9),
			}
			w.clients = append(w.clients, c)
			if err := c.d.call("fileserver.Dial", -1, func() error {
				conn, err := w.pl.Dial()
				if err != nil {
					return err
				}
				c.fs, err = fileserver.Dial(conn)
				return err
			}); err != nil {
				return fmt.Errorf("dial client %d: %w", i, err)
			}
			for _, dir := range []string{"/mix", fmt.Sprintf("/mix/c%d", i)} {
				if err := c.d.call("fileserver.mkdir", -1, func() error { return c.fs.Mkdir(cctx, dir) }); err != nil && err != vfs.ErrExist {
					return fmt.Errorf("mkdir %s: %w", dir, err)
				}
			}
		}
		// Warm-up: fill each client's live set so window 0 starts in
		// steady state. One goroutine drives both clients in turn, so
		// set-up stays deterministic.
		return d.call("mix.warmup", -1, func() error {
			for _, c := range w.clients {
				c.d.tracing = false
				c.genInputs(servedKeep)
			}
			for k := 0; k < servedKeep; k++ {
				for _, c := range w.clients {
					c.iterate(c.inputs[k])
				}
			}
			for _, c := range w.clients {
				c.d.tracing = r.tracing
			}
			return nil
		})
	})
}

// genInputs generates the next n loop iterations of c.
func (c *servedClient) genInputs(n int) {
	c.inputs = c.inputs[:0]
	for i := 0; i < n; i++ {
		c.inputs = append(c.inputs, servedIter{
			size:   servedMeanKB<<9 + c.rng.Intn(servedMeanKB<<10),
			fsync:  c.rng.Intn(3) == 0,
			rename: c.rng.Intn(4) == 0,
			unlink: c.rng.Intn(8) == 0,
		})
	}
}

func (w *servedWorkload) window(r *run, win int) (int64, int64, error) {
	for _, c := range w.clients {
		c.genInputs(servedIters)
		c.d.startWindow(win == 0)
	}
	spans := make([]int64, len(w.clients))
	ops0 := make([]int64, len(w.clients))
	var wg sync.WaitGroup
	for i, c := range w.clients {
		ops0[i] = c.d.attempted
		wg.Add(1)
		go func(i int, c *servedClient) {
			defer wg.Done()
			v0 := c.d.ctx.Now()
			c.d.call("window", -1, func() error {
				for _, it := range c.inputs {
					c.iterate(it)
				}
				return nil
			})
			spans[i] = c.d.ctx.Now() - v0
		}(i, c)
	}
	wg.Wait()
	var ops, vspan int64
	for i, c := range w.clients {
		ops += c.d.attempted - ops0[i]
		if spans[i] > vspan {
			vspan = spans[i]
		}
	}
	return ops, vspan, nil
}

// iterate runs one loop iteration. A failed op ends the iteration; the
// files it leaves are removed by the steady-state deletion later.
func (c *servedClient) iterate(it servedIter) {
	d, ctx, fs := c.d, c.d.ctx, c.fs
	i := c.next
	c.next++
	slot := i % servedKeep
	// Steady state: remove the file from servedKeep iterations back.
	if old := c.live[slot].name; old != "" {
		c.live[slot].name = ""
		d.op("fileserver.unlink", func() error { return fs.Unlink(ctx, old) })
	}
	name := fmt.Sprintf("/mix/c%d/f%07d", c.id, i)
	buf, rbuf := c.buf[:it.size], c.rbuf[:it.size]
	servedData(buf, c.id, i)
	readBack := func(f vfs.File) error {
		n, err := f.ReadAt(ctx, rbuf, 0)
		if err != nil {
			return err
		}
		if n != len(buf) || !bytes.Equal(rbuf[:n], buf) {
			return fmt.Errorf("%s: read %d of %d bytes: %w", name, n, len(buf), errMismatch)
		}
		return nil
	}

	var f vfs.File
	if !d.op("fileserver.create", func() (err error) { f, err = fs.Create(ctx, name); return err }) {
		return
	}
	c.live[slot] = liveFile{name, i}
	ok := d.op("fileserver.append", func() error { _, err := f.Append(ctx, buf); return err })
	if ok && it.fsync {
		ok = d.op("fileserver.fsync", func() error { return f.Fsync(ctx) })
	}
	if ok {
		ok = d.op("fileserver.read", func() error { return readBack(f) })
	}
	if !d.op("fileserver.close", func() error { return f.Close(ctx) }) || !ok {
		return
	}
	cur := name
	if it.rename {
		renamed := name + ".r"
		if !d.op("fileserver.rename", func() error { return fs.Rename(ctx, name, renamed) }) {
			return
		}
		cur = renamed
		c.live[slot].name = cur
		var g vfs.File
		if !d.op("fileserver.open", func() (err error) { g, err = fs.Open(ctx, renamed); return err }) {
			return
		}
		d.op("fileserver.read", func() error { return readBack(g) })
		if !d.op("fileserver.close", func() error { return g.Close(ctx) }) {
			return
		}
	}
	if it.unlink {
		if d.op("fileserver.unlink", func() error { return fs.Unlink(ctx, cur) }) {
			c.live[slot].name = ""
		}
		return
	}
	d.op("fileserver.stat", func() error { _, err := fs.Stat(ctx, cur); return err })
}

func (w *servedWorkload) more() bool { return true }

func (w *servedWorkload) snapshot() snapshot {
	st := w.srv.Stats()
	s := snapshot{now: w.setupCtx.Now(), counters: st.Counters, serverOps: st.Ops}
	s.counters.Add(w.setupCtx.Counters)
	for _, c := range w.clients {
		s.counters.Add(c.d.ctx.Counters)
		if n := c.d.ctx.Now(); n > s.now {
			s.now = n
		}
	}
	return s
}

func (w *servedWorkload) hugeCoverage() float64 { return 1 }

func (w *servedWorkload) model() *pmem.CostModel { return w.dev.Model() }

// finish re-reads every live file through the first client and audits the
// image.
func (w *servedWorkload) finish(r *run) error {
	c := w.clients[0]
	ctx := c.d.ctx
	for _, cl := range w.clients {
		for _, lf := range cl.live {
			if lf.name == "" {
				continue
			}
			if err := verifyServed(ctx, c.fs, lf.name, cl.id, lf.i); err != nil {
				c.d.fail(err)
			}
		}
	}
	actx := sim.NewCtx(3, 0)
	actx.AdvanceTo(w.snapshot().now)
	d := r.newDriver(actx)
	return d.call("winefs.FS.Audit", -1, func() error { return w.fs.Audit(actx) })
}

func verifyServed(ctx *sim.Ctx, fs vfs.FS, name string, client, i int) error {
	f, err := fs.Open(ctx, name)
	if err != nil {
		return fmt.Errorf("final open %s: %w", name, err)
	}
	defer f.Close(ctx)
	want := make([]byte, f.Size())
	servedData(want, client, i)
	got := make([]byte, len(want))
	if n, err := f.ReadAt(ctx, got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
		return fmt.Errorf("final read %s: %d of %d bytes, err %v: %w", name, n, len(want), err, errMismatch)
	}
	return nil
}

// hostThreads: each client runs its loop on its own goroutine.
func (w *servedWorkload) hostThreads() int { return servedClients }
