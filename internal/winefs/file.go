package winefs

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// File is an open WineFS file handle.
type File struct {
	fs     *FS
	ino    *inode
	closed bool
	// dirtyBytes tracks unflushed data in relaxed mode, paid at fsync.
	dirtyBytes int64
}

var _ vfs.File = (*File)(nil)

// Ino implements vfs.File.
func (f *File) Ino() uint64 { return f.ino.ino }

// Size implements vfs.File.
func (f *File) Size() int64 {
	f.ino.mu.RLock()
	defer f.ino.mu.RUnlock()
	return f.ino.size
}

// Close implements vfs.File.
func (f *File) Close(ctx *sim.Ctx) error {
	f.closed = true
	return nil
}

// ReadAt implements vfs.File. Reads past EOF are truncated; holes in
// sparse files read as zeros.
func (f *File) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	ctx.Syscall(f.fs.model.SyscallNS)
	ino := f.ino
	// Shared inode lock: concurrent readers (and disjoint range writers)
	// overlap in virtual time; only exclusive metadata ops are waited for.
	h := f.fs.locks.RLock(ctx, ino.ino)
	defer h.Unlock(ctx)
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	if off >= ino.size {
		return 0, nil
	}
	if off+int64(len(p)) > ino.size {
		p = p[:ino.size-off]
	}
	read := 0
	for read < len(p) {
		pos := off + int64(read)
		blk := pos / BlockSize
		in := pos % BlockSize
		phys, run, _, ok := ino.ext.Lookup(blk)
		if !ok {
			// Sparse hole: zero fill up to the next extent.
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
		// A corrupt extent record can point anywhere; a poisoned line fails
		// the read. Either way the application gets EIO, never garbage.
		if err := f.fs.dataCheckRange(phys*BlockSize+in, n); err != nil {
			return read, mapDevErr(err)
		}
		if err := f.fs.dataReadChecked(ctx, p[read:read+int(n)], phys*BlockSize+in); err != nil {
			return read, mapDevErr(err)
		}
		f.fs.touchExtent(ino, blk)
		read += int(n)
	}
	return read, nil
}

// recAppend adds an extent to the file, merging with a logically and
// physically adjacent neighbour when possible (sequential appends carve
// contiguous space from the same hole, so merging keeps appended files in
// a few large extents — without it every 4KiB append would add a record).
// A merged entry keeps its record slot and heat; a new one takes the next
// free record.
func (fs *FS) recAppend(ctx *sim.Ctx, tx *mtx, ino *inode, e mapExt) error {
	m := &ino.ext
	i := m.Search(e.FileBlk)
	// Try to extend the predecessor covering fileBlk-1.
	if i > 0 {
		if p := m.At(i - 1); p.End() == e.FileBlk && p.Blk+p.Len == e.Blk {
			p.Len += e.Len
			m.Set(i-1, p)
			return fs.writeExtentSlot(ctx, tx, ino, i-1)
		}
	}
	// Or prepend to the successor.
	if i < m.Len() {
		if nx := m.At(i); e.End() == nx.FileBlk && e.Blk+e.Len == nx.Blk {
			nx.FileBlk, nx.Blk, nx.Len = e.FileBlk, e.Blk, nx.Len+e.Len
			m.Set(i, nx)
			return fs.writeExtentSlot(ctx, tx, ino, i)
		}
	}
	e.Val = extVal{slot: m.Len()}
	m.Splice(i, i, e)
	return fs.writeExtentSlot(ctx, tx, ino, i)
}

// recUpdate replaces extent-map entry i with e and persists it to the
// entry's record.
func (fs *FS) recUpdate(ctx *sim.Ctx, tx *mtx, ino *inode, i int, e mapExt) error {
	ino.ext.Set(i, e)
	return fs.writeExtentSlot(ctx, tx, ino, i)
}

// recRemove deletes extent-map entry i, keeping PM records dense by moving
// the last record into the vacated slot.
func (fs *FS) recRemove(ctx *sim.Ctx, tx *mtx, ino *inode, i int) error {
	r := ino.ext.At(i).Val.slot
	lastRec := ino.ext.Len() - 1
	if r != lastRec {
		// Find the entry occupying the last record and move it to r.
		for k, e := range ino.ext.All() {
			if e.Val.slot == lastRec {
				ino.ext.Val(k).slot = r
				if err := fs.writeExtentSlot(ctx, tx, ino, k); err != nil {
					return err
				}
				break
			}
		}
	}
	ino.ext.Splice(i, i+1)
	return nil
}

// allocRange allocates backing for every unbacked block in
// [startBlk, endBlk), zeroing only [zeroSkipStart, zeroSkipEnd) edges as
// needed (the skipped byte range is about to be overwritten by the caller).
// wantAligned forces the alignment-aware allocator's aligned path.
func (f *File) allocRange(ctx *sim.Ctx, tx *mtx, startBlk, endBlk int64, wantAligned bool, skipZeroStart, skipZeroEnd int64) error {
	fs := f.fs
	ino := f.ino
	b := startBlk
	for b < endBlk {
		if _, run, _, ok := ino.ext.Lookup(b); ok {
			b += run
			continue
		}
		gapEnd := ino.ext.NextStart(b, endBlk)
		need := gapEnd - b
		// Hugepage-sized pieces always come from the aligned pool (inside
		// alloc); round the tail up to a full aligned extent only for
		// xattr-hinted files starting at an aligned file offset.
		roundUp := wantAligned && b%BlocksPerHuge == 0
		exts, err := fs.allocData(ctx, tx.cpu, need, roundUp)
		if err != nil {
			return err
		}
		fileBlk := b
		for _, e := range exts {
			// Zero the parts of the new blocks the caller won't overwrite.
			zs := fileBlk * BlockSize
			ze := (fileBlk + e.Len) * BlockSize
			f.zeroEdges(ctx, e, zs, ze, skipZeroStart, skipZeroEnd)
			if err := fs.recAppend(ctx, tx, ino, mapExt{FileBlk: fileBlk, Blk: e.Start, Len: e.Len}); err != nil {
				return err
			}
			fileBlk += e.Len
		}
		b = gapEnd
	}
	return nil
}

// zeroEdges zeroes the portions of a fresh extent (covering file bytes
// [zs, ze)) that fall outside the caller's impending write [skipS, skipE).
func (f *File) zeroEdges(ctx *sim.Ctx, e alloc.Extent, zs, ze, skipS, skipE int64) {
	physBase := e.StartByte()
	if skipE <= zs || skipS >= ze {
		f.fs.dataZero(ctx, physBase, ze-zs)
		return
	}
	if skipS > zs {
		f.fs.dataZero(ctx, physBase, skipS-zs)
	}
	if skipE < ze {
		f.fs.dataZero(ctx, physBase+(skipE-zs), ze-skipE)
	}
}

// WriteAt implements vfs.File.
func (f *File) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	return f.write(ctx, p, off)
}

// Append implements vfs.File.
func (f *File) Append(ctx *sim.Ctx, p []byte) (int, error) {
	f.ino.mu.RLock()
	off := f.ino.size
	f.ino.mu.RUnlock()
	return f.write(ctx, p, off)
}

// rangeWritableLocked reports whether [off, end) can be served as a pure
// in-place overwrite under a byte-range lock: fully backed, within the
// current size, and — in strict mode — every backing extent on the
// data-journal path (copy-on-write rewrites the extent map, which is
// metadata and therefore needs the exclusive inode lock). Caller holds
// ino.mu.
func (ino *inode) rangeWritableLocked(mode vfs.ConsistencyMode, off, end int64) bool {
	if end > ino.size {
		return false
	}
	endBlk := (end + BlockSize - 1) / BlockSize
	for b := off / BlockSize; b < endBlk; {
		_, run, _, ok := ino.ext.Lookup(b)
		if !ok {
			return false
		}
		if mode == vfs.Strict && !ino.extentAlignedAtLocked(b) {
			return false
		}
		b += run
	}
	return true
}

func (f *File) write(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	ctx.Syscall(f.fs.model.SyscallNS)
	if err := f.fs.writable(); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	fs := f.fs
	ino := f.ino

	// Fast path: an overwrite of already-allocated bytes changes no
	// metadata, so it only needs to exclude writers touching overlapping
	// byte ranges — disjoint writers to the same file proceed in parallel
	// in virtual time. Probe without the lock, then recheck with the range
	// held (a concurrent truncate or CoW may have changed the layout).
	ino.mu.RLock()
	fast := ino.rangeWritableLocked(fs.mode, off, off+int64(len(p)))
	ino.mu.RUnlock()
	if fast {
		if n, ok, err := f.writeRange(ctx, p, off); ok {
			return n, err
		}
	}

	h := fs.locks.Lock(ctx, ino.ino)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()

	n := int64(len(p))
	end := off + n
	startBlk := off / BlockSize
	endBlk := (end + BlockSize - 1) / BlockSize
	oldSize := ino.size

	// A pure in-place overwrite (no allocation, no size change) touches no
	// metadata: it needs no journal transaction at all — only the hybrid
	// data-atomicity machinery. The transaction is created lazily by the
	// paths that mutate metadata.
	var tx *mtx
	getTx := func() *mtx {
		if tx == nil {
			tx = fs.begin(ctx)
		}
		return tx
	}
	finish := func() {
		if tx != nil {
			tx.commit()
		}
	}
	// fail rolls back the open transaction (if any) and maps the error; a
	// media fault additionally degrades the file system to read-only.
	fail := func(err error) error {
		if tx != nil {
			return fs.failTx(tx, "write", err)
		}
		if isMediaErr(err) {
			fs.degrade("media error during write: %v", err)
		}
		return mapDevErr(err)
	}

	// A write starting past a mid-block EOF exposes the stale tail of the
	// old last block: zero it so the gap reads as zero.
	if off > oldSize && oldSize%BlockSize != 0 {
		if phys, _, _, ok := ino.ext.Lookup(oldSize / BlockSize); ok {
			tail := min64(BlockSize-oldSize%BlockSize, off-oldSize)
			fs.dataZero(ctx, phys*BlockSize+oldSize%BlockSize, tail)
		}
	}

	needAlloc := false
	for b := startBlk; b < endBlk; {
		_, run, _, ok := ino.ext.Lookup(b)
		if !ok {
			needAlloc = true
			break
		}
		b += run
	}
	if needAlloc {
		// Hugepage-sized pieces of the request are served from the aligned
		// pool automatically; only the xattr hint forces the tail to round
		// up to a full aligned extent (§3.6).
		wantAligned := ino.flags&flagAligned != 0
		if err := f.allocRange(ctx, getTx(), startBlk, endBlk, wantAligned, off, end); err != nil {
			return 0, fail(err)
		}
	}

	// Strict mode must make the data update atomic. The hybrid scheme
	// (§3.4, "Data Atomicity") journals in-place updates of aligned extents
	// and copies-on-write updates of unaligned holes. Only bytes that
	// existed before this call (off < oldSize) are overwrites.
	if err := f.writeData(ctx, getTx, p, off, oldSize); err != nil {
		return 0, fail(err)
	}
	if end > ino.size {
		old := ino.size
		ino.size = end
		if err := fs.writeInodeHeader(ctx, getTx(), ino); err != nil {
			ino.size = old
			return 0, fail(err)
		}
	}
	finish()
	if fs.mode == vfs.Relaxed {
		f.dirtyBytes += n
	}
	return len(p), nil
}

// writeRange is the byte-range fast path: bytes [off, off+len(p)) are
// overwritten in place while holding the inode shared plus the range
// exclusively. ok=false means the layout changed between the caller's
// probe and the lock (truncate, CoW) — the range has been released and the
// caller must retry on the exclusive slow path.
func (f *File) writeRange(ctx *sim.Ctx, p []byte, off int64) (n int, ok bool, err error) {
	fs := f.fs
	ino := f.ino
	h := fs.locks.LockRange(ctx, ino.ino, off, int64(len(p)))
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()
	if !ino.rangeWritableLocked(fs.mode, off, off+int64(len(p))) {
		return 0, false, nil
	}
	written := 0
	for written < len(p) {
		pos := off + int64(written)
		blk := pos / BlockSize
		in := pos % BlockSize
		phys, run, _, found := ino.ext.Lookup(blk)
		if !found {
			return 0, false, nil // unreachable after the recheck
		}
		chunk := run*BlockSize - in
		if chunk > int64(len(p)-written) {
			chunk = int64(len(p) - written)
		}
		if fs.mode == vfs.Strict {
			// Data journaling only: the recheck guarantees no block needs
			// copy-on-write, so the extent map is never touched here.
			fs.chargeDataJournal(ctx, chunk)
		}
		fs.dataWrite(ctx, p[written:written+int(chunk)], phys*BlockSize+in)
		if fs.mode == vfs.Strict {
			fs.dataFlush(ctx, phys*BlockSize+in, chunk)
		}
		fs.touchExtent(ino, blk)
		written += int(chunk)
	}
	if fs.mode == vfs.Strict {
		fs.dev.Fence(ctx)
	} else {
		f.dirtyBytes += int64(len(p))
	}
	return len(p), true, nil
}

// writeData moves p into the file at off, applying the hybrid atomicity
// policy for the overwritten prefix. getTx materialises the journal
// transaction lazily (only the CoW path needs one).
func (f *File) writeData(ctx *sim.Ctx, getTx func() *mtx, p []byte, off, oldSize int64) error {
	fs := f.fs
	ino := f.ino
	overwriteEnd := oldSize
	if off+int64(len(p)) < overwriteEnd {
		overwriteEnd = off + int64(len(p))
	}
	written := 0
	for written < len(p) {
		pos := off + int64(written)
		blk := pos / BlockSize
		in := pos % BlockSize
		phys, run, _, ok := ino.ext.Lookup(blk)
		if !ok {
			return vfs.ErrNoSpace // allocRange must have covered everything
		}
		chunk := run*BlockSize - in
		if chunk > int64(len(p)-written) {
			chunk = int64(len(p) - written)
		}
		isOverwrite := pos < overwriteEnd
		if isOverwrite && fs.mode == vfs.Strict {
			ovEnd := pos + chunk
			if ovEnd > overwriteEnd {
				ovEnd = overwriteEnd
			}
			if f.extentAlignedAt(blk) {
				// Data journaling: old contents logged, then updated in
				// place — the layout (and hence hugepages) is preserved.
				fs.chargeDataJournal(ctx, ovEnd-pos)
			} else {
				// Copy-on-write into fresh holes.
				if err := f.cowRange(ctx, getTx(), p[written:written+int(chunk)], pos); err != nil {
					return err
				}
				written += int(chunk)
				continue
			}
		}
		fs.dataWrite(ctx, p[written:written+int(chunk)], phys*BlockSize+in)
		if fs.mode == vfs.Strict {
			fs.dataFlush(ctx, phys*BlockSize+in, chunk)
		}
		fs.touchExtent(ino, blk)
		written += int(chunk)
	}
	if fs.mode == vfs.Strict {
		fs.dev.Fence(ctx)
	}
	return nil
}

// dataJournalMinBlocks is the extent size above which WineFS prefers data
// journaling over copy-on-write even when the extent is not hugepage
// aligned: §3.4's trade-off is "incurring the extra write for preserving
// data layout (when it matters), and using copy-on-write when preserving
// the data layout does not matter" — layout matters for any large
// contiguous run, not only for already-aligned ones.
const dataJournalMinBlocks = 64

// extentAlignedAtLocked reports whether the extent backing fileBlk should
// be updated via data journaling (aligned hugepage extent, or a large
// contiguous run whose layout is worth preserving).
func (ino *inode) extentAlignedAtLocked(fileBlk int64) bool {
	i, ok := ino.ext.Find(fileBlk)
	if !ok {
		return false
	}
	e := ino.ext.At(i)
	if e.Blk%BlocksPerHuge == 0 && e.Len >= BlocksPerHuge {
		return true
	}
	return e.Len >= dataJournalMinBlocks
}

func (f *File) extentAlignedAt(fileBlk int64) bool {
	return f.ino.extentAlignedAtLocked(fileBlk)
}

// chargeDataJournal accounts the extra journal write data journaling costs
// (the data is written twice: once to the journal, once in place).
func (fs *FS) chargeDataJournal(ctx *sim.Ctx, n int64) {
	ctx.Counters.JournalBytes += n
	// The data journal is written with sequential non-temporal stores at a
	// fraction of the random in-place cost.
	ns := int64(float64(n) * fs.model.CopyWriteNSPerByte * 0.6)
	if n <= 256 {
		ns = fs.model.WriteLat64
	}
	ctx.Advance(ns)
	ctx.Counters.PMWriteBytes += n
}

// cowRange implements copy-on-write for a byte range backed by unaligned
// holes: new hole blocks are allocated, untouched edge bytes copied over,
// the new data written, and the extent map switched in the transaction.
func (f *File) cowRange(ctx *sim.Ctx, tx *mtx, p []byte, off int64) error {
	fs := f.fs
	ino := f.ino
	startBlk := off / BlockSize
	end := off + int64(len(p))
	endBlk := (end + BlockSize - 1) / BlockSize
	nBlks := endBlk - startBlk

	newExts, ok := fs.allocDataSmall(ctx, tx.cpu, nBlks)
	if !ok {
		return vfs.ErrNoSpace
	}
	ctx.Counters.CoWCopies += nBlks

	// Copy edge bytes the write doesn't cover, then lay down the new data.
	var newBlks []int64
	for _, e := range newExts {
		for b := e.Start; b < e.End(); b++ {
			newBlks = append(newBlks, b)
		}
	}
	buf := make([]byte, BlockSize)
	for i, nb := range newBlks {
		fileBlk := startBlk + int64(i)
		oldPhys, _, _, okOld := ino.ext.Lookup(fileBlk)
		bs := fileBlk * BlockSize
		be := bs + BlockSize
		ws := off
		if ws < bs {
			ws = bs
		}
		we := end
		if we > be {
			we = be
		}
		if okOld && (ws > bs || we < be) {
			if err := fs.dataReadChecked(ctx, buf, oldPhys*BlockSize); err != nil {
				return err
			}
			fs.dataWrite(ctx, buf, nb*BlockSize)
		}
		fs.dataWrite(ctx, p[ws-off:we-off], nb*BlockSize+(ws-bs))
		fs.dataFlush(ctx, nb*BlockSize, BlockSize)
	}
	fs.dev.Fence(ctx)

	// Atomically swap the extent map for [startBlk, endBlk).
	if err := f.replaceRange(ctx, tx, startBlk, endBlk, newExts); err != nil {
		return err
	}
	return nil
}

// replaceRange rewrites the extent map so [startBlk, endBlk) is backed by
// newExts (in order), freeing the displaced blocks. Caller holds ino.mu.
func (f *File) replaceRange(ctx *sim.Ctx, tx *mtx, startBlk, endBlk int64, newExts []alloc.Extent) error {
	fs := f.fs
	ino := f.ino
	// Shoot down mapped translations before the displaced blocks return
	// to the allocator: a mapping that kept them would read recycled
	// memory. Refaults resolve through the new extents.
	for _, m := range ino.mappings {
		m.Invalidate()
	}
	// 1. Detach the old mapping over the range, one overlapping entry at
	// a time: each step persists its record before the next.
	var freed []alloc.Extent
	for i := ino.ext.Search(startBlk); i < ino.ext.Len() && ino.ext.At(i).FileBlk < endBlk; {
		e := ino.ext.At(i)
		ovS := max64(e.FileBlk, startBlk)
		ovE := min64(e.End(), endBlk)
		freed = append(freed, alloc.Extent{Start: e.Blk + (ovS - e.FileBlk), Len: ovE - ovS})
		head, tail := e, e
		head.Len = ovS - e.FileBlk
		tail.FileBlk, tail.Blk, tail.Len = ovE, e.Blk+(ovE-e.FileBlk), e.End()-ovE
		if head.Len == 0 && tail.Len == 0 {
			if err := fs.recRemove(ctx, tx, ino, i); err != nil {
				return err
			}
			continue
		}
		var err error
		switch {
		case head.Len == 0:
			err = fs.recUpdate(ctx, tx, ino, i, tail)
		case tail.Len == 0:
			err = fs.recUpdate(ctx, tx, ino, i, head)
		default:
			// Split: head stays, tail gets a record of its own.
			if err = fs.recUpdate(ctx, tx, ino, i, head); err == nil {
				err = fs.recAppend(ctx, tx, ino, mapExt{FileBlk: tail.FileBlk, Blk: tail.Blk, Len: tail.Len})
			}
		}
		if err != nil {
			return err
		}
		i++
	}
	// 2. Attach the new mapping.
	fileBlk := startBlk
	for _, e := range newExts {
		l := e.Len
		if fileBlk+l > endBlk {
			l = endBlk - fileBlk
		}
		if err := fs.recAppend(ctx, tx, ino, mapExt{FileBlk: fileBlk, Blk: e.Start, Len: l}); err != nil {
			return err
		}
		fileBlk += l
	}
	if err := fs.writeInodeHeader(ctx, tx, ino); err != nil {
		return err
	}
	// 3. Free the displaced blocks.
	for _, e := range freed {
		fs.alloc.free(ctx, e)
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Truncate implements vfs.File. Growing is sparse (no allocation —
// LMDB-style ftruncate); shrinking frees whole blocks past the new end.
func (f *File) Truncate(ctx *sim.Ctx, size int64) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	if err := f.fs.writable(); err != nil {
		return err
	}
	fs := f.fs
	ino := f.ino
	h := fs.locks.Lock(ctx, ino.ino)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()

	tx := fs.begin(ctx)
	if size < ino.size {
		// POSIX: if the file grows again later, bytes past the new EOF must
		// read as zero — zero the stale tail of the last kept block now.
		if size%BlockSize != 0 {
			if phys, _, _, ok := ino.ext.Lookup(size / BlockSize); ok {
				tail := BlockSize - size%BlockSize
				fs.dataZero(ctx, phys*BlockSize+size%BlockSize, tail)
			}
		}
		keepBlks := (size + BlockSize - 1) / BlockSize
		var freed []alloc.Extent
		// Only the entries past keepBlks change; each step persists its
		// record before the next.
		for i := ino.ext.Search(keepBlks); i < ino.ext.Len(); {
			e := ino.ext.At(i)
			if e.FileBlk >= keepBlks {
				freed = append(freed, alloc.Extent{Start: e.Blk, Len: e.Len})
				if err := fs.recRemove(ctx, tx, ino, i); err != nil {
					return fs.failTx(tx, "truncate", err)
				}
				continue
			}
			cut := keepBlks - e.FileBlk
			freed = append(freed, alloc.Extent{Start: e.Blk + cut, Len: e.Len - cut})
			e.Len = cut
			if err := fs.recUpdate(ctx, tx, ino, i, e); err != nil {
				return fs.failTx(tx, "truncate", err)
			}
			i++
		}
		if len(freed) > 0 {
			// Shoot down live mapping translations covering the freed
			// blocks before they can be reallocated: later faults re-read
			// the layout and the new size, so an access past the new EOF
			// gets vfs.ErrMapFault, never a recycled extent.
			for _, m := range ino.mappings {
				m.Invalidate()
			}
		}
		for _, e := range freed {
			fs.alloc.free(ctx, e)
		}
	}
	old := ino.size
	ino.size = size
	if err := fs.writeInodeHeader(ctx, tx, ino); err != nil {
		ino.size = old
		return fs.failTx(tx, "truncate", err)
	}
	tx.commit()
	return nil
}

// Fallocate implements vfs.File: preallocates and zero-fills the range
// (zeroing at allocation time keeps WineFS page faults cheap, in contrast
// to ext4-DAX's zero-on-fault — see Table 2 discussion).
func (f *File) Fallocate(ctx *sim.Ctx, off, n int64) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	if err := f.fs.writable(); err != nil {
		return err
	}
	fs := f.fs
	ino := f.ino
	h := fs.locks.Lock(ctx, ino.ino)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()

	startBlk := off / BlockSize
	endBlk := (off + n + BlockSize - 1) / BlockSize
	tx := fs.begin(ctx)
	wantAligned := ino.flags&flagAligned != 0
	// skip-zero range is empty: zero everything newly allocated.
	if err := f.allocRange(ctx, tx, startBlk, endBlk, wantAligned, -1, -1); err != nil {
		return fs.failTx(tx, "fallocate", err)
	}
	old := ino.size
	if off+n > ino.size {
		ino.size = off + n
	}
	if err := fs.writeInodeHeader(ctx, tx, ino); err != nil {
		ino.size = old
		return fs.failTx(tx, "fallocate", err)
	}
	tx.commit()
	return nil
}

// Fsync implements vfs.File. All WineFS metadata (and, in strict mode,
// data) is already durable when the syscall returns, so fsync only pays
// the residual flush of relaxed-mode data plus a fence — this is why
// fsync-heavy workloads (varmail, Figure 9) do well.
func (f *File) Fsync(ctx *sim.Ctx) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	if f.dirtyBytes > 0 {
		lines := (f.dirtyBytes + 63) / 64
		ctx.Advance(lines * f.fs.model.FlushLat / 8)
		f.dirtyBytes = 0
	}
	f.fs.dev.Fence(ctx)
	return nil
}

// Extents implements vfs.File.
func (f *File) Extents() []mmu.Extent {
	f.ino.mu.RLock()
	defer f.ino.mu.RUnlock()
	return f.ino.ext.Extents()
}

// SetPathXattr sets an extended attribute by path — usable on directories
// as well as files (directory-level alignment inheritance, §3.6).
func (fs *FS) SetPathXattr(ctx *sim.Ctx, path, name string, value []byte) error {
	ctx.Syscall(fs.model.SyscallNS)
	if name != vfs.XattrAligned {
		return nil
	}
	if err := fs.writable(); err != nil {
		return err
	}
	ino, err := fs.resolve(ctx, path)
	if err != nil {
		return err
	}
	h := fs.locks.Lock(ctx, ino.ino)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()
	tx := fs.begin(ctx)
	oldFlags := ino.flags
	ino.flags |= flagAligned
	if err := fs.writeInodeHeader(ctx, tx, ino); err != nil {
		ino.flags = oldFlags
		return fs.failTx(tx, "setxattr", err)
	}
	tx.commit()
	return nil
}

// SetXattr implements vfs.File. Setting XattrAligned persists the
// alignment hint (§3.6, "Supporting extended attributes").
func (f *File) SetXattr(ctx *sim.Ctx, name string, value []byte) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	if name != vfs.XattrAligned {
		return nil // only the alignment attribute is modelled
	}
	if err := f.fs.writable(); err != nil {
		return err
	}
	fs := f.fs
	ino := f.ino
	h := fs.locks.Lock(ctx, ino.ino)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()
	tx := fs.begin(ctx)
	oldFlags := ino.flags
	ino.flags |= flagAligned
	if err := fs.writeInodeHeader(ctx, tx, ino); err != nil {
		ino.flags = oldFlags
		return fs.failTx(tx, "setxattr", err)
	}
	tx.commit()
	return nil
}

// GetXattr implements vfs.File.
func (f *File) GetXattr(ctx *sim.Ctx, name string) ([]byte, bool) {
	ctx.Syscall(f.fs.model.SyscallNS)
	if name != vfs.XattrAligned {
		return nil, false
	}
	h := f.fs.locks.RLock(ctx, f.ino.ino)
	defer h.Unlock(ctx)
	f.ino.mu.RLock()
	defer f.ino.mu.RUnlock()
	if f.ino.flags&flagAligned != 0 {
		return []byte("1"), true
	}
	return nil, false
}

// Mmap implements vfs.File. If the file should be hugepage-mapped but its
// layout prevents it, the file is queued for reactive rewriting (§3.6).
func (f *File) Mmap(ctx *sim.Ctx, length int64) (*mmu.Mapping, error) {
	ctx.Syscall(f.fs.model.SyscallNS)
	if length <= 0 {
		length = f.Size()
	}
	if length <= 0 {
		return nil, mmu.ErrOutOfRange
	}
	f.fs.maybeQueueRewrite(f.ino)
	m := f.fs.as.NewMapping(length, f)
	f.ino.mu.Lock()
	f.ino.mappings = append(f.ino.mappings, m)
	f.ino.mu.Unlock()
	return m, nil
}

// Fault implements mmu.FaultHandler: resolve the base page at pageOff.
// Pages inside an aligned, fully backed 2MiB chunk map as hugepages;
// unbacked pages are allocated on demand (sparse ftruncate growth), taking
// a whole aligned extent when the chunk lies within the file so the fault
// can still be served with a hugepage.
func (f *File) Fault(ctx *sim.Ctx, pageOff int64) (mmu.FaultResult, error) {
	fs := f.fs
	ino := f.ino
	chunkOff := pageOff / mmu.HugePage * mmu.HugePage

	// The view is patched in place by layout changes, so it is only read
	// under the lock.
	ino.mu.RLock()
	res, ok := backedFault(ino.ext.View(), chunkOff, pageOff)
	ino.mu.RUnlock()
	if ok {
		return res, nil
	}

	// Demand allocation under the inode lock. A degraded (read-only) file
	// system cannot back new pages.
	if err := fs.writable(); err != nil {
		return mmu.FaultResult{}, err
	}
	h := fs.locks.Lock(ctx, ino.ino)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()

	// Re-check after taking the lock.
	if res, ok := backedFault(ino.ext.View(), chunkOff, pageOff); ok {
		return res, nil
	}

	// The page may be backed on the slow tier (the view leaves those
	// extents out — they are not byte-addressable). Promote it to PM and serve
	// the fault from the new location; falling through to demand allocation
	// would double-back the page and orphan the slow copy.
	if fblk := pageOff / BlockSize; fs.isSlow(blkAt(ino, fblk)) {
		if err := fs.writable(); err != nil {
			return mmu.FaultResult{}, err
		}
		if !fs.promoteRunLocked(ctx, ino, fblk) {
			return mmu.FaultResult{}, vfs.ErrNoSpace
		}
		if res, ok := backedFault(ino.ext.View(), chunkOff, pageOff); ok {
			return res, nil
		}
		return mmu.FaultResult{}, fmt.Errorf("winefs: fault at %d not backed after promotion: %w", pageOff, vfs.ErrMapFault)
	}

	// SIGBUS rule: demand allocation only backs pages inside the current
	// file size (re-read under the lock — a racing truncate/unlink may
	// have shrunk it since the unlocked probe). mmap rounds the file out
	// to a page boundary; anything past that is a typed fault error.
	size := ino.size
	if pageOff >= (size+BlockSize-1)/BlockSize*BlockSize {
		return mmu.FaultResult{}, fmt.Errorf("winefs: fault at %d beyond eof %d: %w", pageOff, size, vfs.ErrMapFault)
	}

	tx := fs.begin(ctx)
	chunkBlk := chunkOff / BlockSize
	chunkFree := true
	if i, j := ino.ext.Overlap(chunkBlk, chunkBlk+BlocksPerHuge); i < j {
		chunkFree = false
	}
	if chunkFree && chunkOff+mmu.HugePage <= size {
		// The whole chunk is unbacked and within the file: allocate one
		// aligned extent and serve a hugepage fault.
		if blk, ok := fs.alloc.allocAligned(ctx, tx.cpu); ok {
			fs.dev.Zero(ctx, blk*BlockSize, alloc.HugeBytes)
			if err := fs.recAppend(ctx, tx, ino, mapExt{FileBlk: chunkBlk, Blk: blk, Len: BlocksPerHuge}); err != nil {
				return mmu.FaultResult{}, fs.failTx(tx, "fault", err)
			}
			tx.commit()
			return mmu.FaultResult{Huge: true, Phys: blk * BlockSize}, nil
		}
	}
	// Fall back to a single base page from the hole pool.
	small, ok := fs.alloc.allocSmall(ctx, tx.cpu, 1)
	if !ok {
		tx.commit()
		return mmu.FaultResult{}, vfs.ErrNoSpace
	}
	blk := small[0].Start
	fs.dev.Zero(ctx, blk*BlockSize, BlockSize)
	if err := fs.recAppend(ctx, tx, ino, mapExt{FileBlk: pageOff / BlockSize, Blk: blk, Len: 1}); err != nil {
		return mmu.FaultResult{}, fs.failTx(tx, "fault", err)
	}
	tx.commit()
	return mmu.FaultResult{Phys: blk * BlockSize}, nil
}

// backedFault serves a fault from the mmu view when the page is already
// backed by PM: a hugepage when the chunk is eligible, else a base page.
func backedFault(view []mmu.Extent, chunkOff, pageOff int64) (mmu.FaultResult, bool) {
	if phys, ok := mmu.HugeEligible(view, chunkOff); ok {
		return mmu.FaultResult{Huge: true, Phys: phys}, true
	}
	if phys, ok := mmu.PhysAt(view, pageOff); ok {
		return mmu.FaultResult{Phys: phys}, true
	}
	return mmu.FaultResult{}, false
}
