package winefs

import (
	"repro/internal/alloc"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// Reactive rewriting (§3.6, "Reactively rewriting a file"): when a file is
// memory-mapped and found fragmented — allocated from unaligned holes even
// though it is large enough to use hugepages — it is queued, and a
// background thread later reads it and rewrites it with big (aligned)
// allocations, switching the directory's view to the new layout in one
// journal transaction. The paper notes this is an extremely rare path for
// well-behaved mmap applications.

// maybeQueueRewrite checks a file's layout at mmap time and queues it for
// rewriting if any full 2MiB chunk of it cannot be hugepage-mapped.
func (fs *FS) maybeQueueRewrite(ino *inode) {
	fragmented := false
	ino.mu.RLock()
	view := ino.ext.View()
	for chunk := int64(0); chunk+mmu.HugePage <= ino.size; chunk += mmu.HugePage {
		if _, ok := mmu.HugeEligible(view, chunk); !ok {
			fragmented = true
			break
		}
	}
	ino.mu.RUnlock()
	if !fragmented {
		return
	}
	fs.rewriteMu.Lock()
	if fs.rewriteQueued == nil {
		fs.rewriteQueued = make(map[*inode]bool)
	}
	// rewriteQueued stays set from enqueue until the rewrite completes,
	// so a second mmap while the file is queued — or mid-rewrite — cannot
	// double-enqueue it.
	if !fs.rewriteQueued[ino] {
		fs.rewriteQueued[ino] = true
		fs.rewriteQ = append(fs.rewriteQ, ino)
	}
	fs.rewriteMu.Unlock()
}

// dropRewrite removes a dying inode from the rewrite queue (unlink/rmdir
// while queued). If the inode is mid-rewrite (marked but already popped),
// only the guard is cleared; rewriteFile itself re-checks the inode type
// and size under the lock and backs out.
func (fs *FS) dropRewrite(ino *inode) {
	fs.rewriteMu.Lock()
	defer fs.rewriteMu.Unlock()
	if !fs.rewriteQueued[ino] {
		return
	}
	delete(fs.rewriteQueued, ino)
	for i, q := range fs.rewriteQ {
		if q == ino {
			fs.rewriteQ = append(fs.rewriteQ[:i], fs.rewriteQ[i+1:]...)
			break
		}
	}
}

// RewriteQueueLen reports how many files await reactive rewriting.
func (fs *FS) RewriteQueueLen() int {
	fs.rewriteMu.Lock()
	defer fs.rewriteMu.Unlock()
	return len(fs.rewriteQ)
}

// RunRewriter drains the rewrite queue, acting as the paper's background
// thread. The caller provides the thread context the work is charged to
// (experiments run it on a dedicated simulated thread so its bandwidth
// consumption competes with foreground work, §4's defragmentation
// interference discussion). Returns the number of files rewritten.
func (fs *FS) RunRewriter(ctx *sim.Ctx) int {
	return fs.runRewriter(ctx, nil)
}

// runRewriter is RunRewriter with an optional duty-cycle pacer (the
// defragmenter's throttled drain shares this path).
func (fs *FS) runRewriter(ctx *sim.Ctx, pacer *sim.Pacer) int {
	done := 0
	for {
		if fs.unmounted.Load() {
			return done
		}
		fs.rewriteMu.Lock()
		if len(fs.rewriteQ) == 0 {
			fs.rewriteMu.Unlock()
			return done
		}
		ino := fs.rewriteQ[0]
		fs.rewriteQ = fs.rewriteQ[1:]
		fs.rewriteMu.Unlock()
		// Identity check: the inode may have been freed — and its number
		// reused by a new file — while queued. The shard map holds the
		// live object for the number; rewriting anything else would churn
		// a file that was never mmapped fragmented.
		var retry bool
		if fs.getInode(ino.ino) == ino {
			var ok bool
			ok, retry = fs.rewriteFile(ctx, ino, pacer)
			if ok {
				done++
				ctx.Counters.Rewrites++
				// Live mappings were shot down by the rewrite; re-promote
				// them now instead of waiting for refaults (must run
				// without ino.mu held — the hook probes back through
				// ProbeHuge).
				fs.notifyPromote(ctx, ino)
			}
		}
		fs.rewriteMu.Lock()
		if retry && !fs.unmounted.Load() {
			// Aligned space ran out mid-drain: push the file back (guard
			// stays set) and stop — the next defrag pass re-forms more
			// aligned extents before retrying.
			fs.rewriteQ = append(fs.rewriteQ, ino)
			fs.rewriteMu.Unlock()
			return done
		}
		delete(fs.rewriteQueued, ino)
		fs.rewriteMu.Unlock()
	}
}

// rewriteFile re-allocates the whole file from aligned extents, copies the
// data across, and swaps the extent map in one transaction. A non-nil
// pacer throttles the copy to its duty-cycle budget, burst by burst.
// retry=true means the rewrite failed only for lack of space — worth
// retrying after the defragmenter re-forms aligned extents.
func (fs *FS) rewriteFile(ctx *sim.Ctx, ino *inode, pacer *sim.Pacer) (done, retry bool) {
	if fs.writable() != nil {
		return false, false
	}
	h := fs.locks.Lock(ctx, ino.ino)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()
	if ino.typ != typeFile || ino.size < mmu.HugePage {
		return false, false
	}
	blocks := (ino.size + BlockSize - 1) / BlockSize
	tx := fs.begin(ctx)
	newExts, err := fs.alloc.alloc(ctx, tx.cpu, blocks, true)
	if err != nil {
		tx.commit()
		return false, true
	}
	// The allocator quietly falls back to hole space when the aligned
	// pools run dry — fine for ordinary writes, useless here: a rewrite
	// that lands on unaligned holes burns a full copy of the file and
	// still cannot be hugepage-mapped. Insist on a hugepage-pure layout
	// and otherwise put the file back in the queue for after the
	// defragmenter has re-formed aligned extents.
	if !hugePure(newExts) {
		for _, e := range newExts {
			fs.alloc.free(ctx, e)
		}
		tx.commit()
		return false, true
	}
	// Copy old contents (reading through the old map) into the new blocks.
	// A media fault here aborts the rewrite: the old (fragmented but intact)
	// layout stays in place and the application keeps getting EIO only for
	// the genuinely poisoned bytes.
	buf := make([]byte, alloc.HugeBytes)
	var copied int64
	for _, ne := range newExts {
		remaining := ne.Len
		dst := ne.Start
		for remaining > 0 && copied < blocks {
			n := remaining
			if n > int64(len(buf))/BlockSize {
				n = int64(len(buf)) / BlockSize
			}
			if copied+n > blocks {
				n = blocks - copied
			}
			burst := ctx.Now()
			if err := fs.readRangeLocked(ctx, ino, buf[:n*BlockSize], copied*BlockSize); err != nil {
				tx.abort()
				for _, e := range newExts {
					fs.alloc.free(ctx, e)
				}
				return false, false
			}
			fs.dev.Write(ctx, buf[:n*BlockSize], dst*BlockSize)
			dst += n
			copied += n
			remaining -= n
			pacer.Pace(ctx, ctx.Now()-burst)
		}
	}
	// Swap the extent map: free the old layout, install the new.
	old := ino.ext.All()
	var swapped []mapExt
	fileBlk := int64(0)
	for _, ne := range newExts {
		l := ne.Len
		if fileBlk+l > blocks {
			l = blocks - fileBlk
		}
		if l <= 0 {
			fs.alloc.free(ctx, ne)
			continue
		}
		swapped = append(swapped, mapExt{FileBlk: fileBlk, Blk: ne.Start, Len: l, Val: extVal{slot: len(swapped)}})
		fileBlk += l
		if l < ne.Len {
			fs.alloc.free(ctx, alloc.Extent{Start: ne.Start + l, Len: ne.Len - l})
		}
	}
	ino.ext.Reset(swapped)
	err = nil
	for i := range swapped {
		if err = fs.writeExtentSlot(ctx, tx, ino, i); err != nil {
			break
		}
	}
	if err == nil {
		err = fs.writeInodeHeader(ctx, tx, ino)
	}
	if err != nil {
		// The DRAM map has already been swapped; roll back PM and restore it.
		_ = fs.failTx(tx, "rewrite", err)
		for _, ne := range newExts {
			fs.alloc.free(ctx, ne)
		}
		ino.ext.Reset(old)
		return false, false
	}
	tx.commit()
	// Shoot down any live mappings before the old blocks are freed:
	// subsequent accesses re-fault against the new (aligned) layout.
	for _, m := range ino.mappings {
		m.Invalidate()
	}
	fs.alloc.freeAll(ctx, old)
	return true, false
}

// hugePure reports whether an aligned-requested allocation actually came
// out hugepage-pure: every extent starts on a 2MiB boundary and, except
// for the final one, covers whole 2MiB chunks. Any hole-space fallback
// extent breaks one of the two.
func hugePure(exts []alloc.Extent) bool {
	for i, e := range exts {
		if e.Start%BlocksPerHuge != 0 {
			return false
		}
		if i < len(exts)-1 && e.Len%BlocksPerHuge != 0 {
			return false
		}
	}
	return true
}

// readRangeLocked reads file bytes through the extent map (caller holds
// ino.mu). Holes read as zero; poisoned lines or corrupt extent pointers
// surface as an error.
func (fs *FS) readRangeLocked(ctx *sim.Ctx, ino *inode, p []byte, off int64) error {
	read := 0
	for read < len(p) {
		pos := off + int64(read)
		blk := pos / BlockSize
		in := pos % BlockSize
		phys, run, _, ok := ino.ext.Lookup(blk)
		if !ok {
			holeEnd := ino.ext.NextStart(blk, (off+int64(len(p))+BlockSize-1)/BlockSize) * BlockSize
			n := holeEnd - pos
			if n > int64(len(p)-read) {
				n = int64(len(p) - read)
			}
			z := p[read : read+int(n)]
			for i := range z {
				z[i] = 0
			}
			read += int(n)
			continue
		}
		n := run*BlockSize - in
		if n > int64(len(p)-read) {
			n = int64(len(p) - read)
		}
		if err := fs.dataCheckRange(phys*BlockSize+in, n); err != nil {
			return err
		}
		if err := fs.dataReadChecked(ctx, p[read:read+int(n)], phys*BlockSize+in); err != nil {
			return err
		}
		read += int(n)
	}
	return nil
}
