package pmobj

import (
	"encoding/binary"
	"fmt"
)

// Tx is a redo-log transaction: writes (and allocator operations) buffer in
// volatile memory and become durable atomically at Commit. A crash before
// Commit leaves the arena untouched; a crash during Commit is repaired by
// redo replay at the next Open/Reopen.
//
// Reads inside a transaction that must observe the transaction's own writes
// go through Tx.ReadU64 (overlay semantics); plain Arena reads see the
// pre-transaction state.
//
// A Tx is only a handle: its stores, pending bump pointer and free-list
// heads live in the arena's txState, which every transaction reuses, so a
// steady stream of transactions allocates only each handle. A Tx owns that
// state only while it is the arena's active transaction; once closed it
// must not touch it, and it panics on any further write.
type Tx struct {
	a      *Arena
	closed bool
}

// txState is the active transaction's state. Begin resets it, truncating
// rather than freeing the op list and data buffer.
type txState struct {
	ops     []writeOp        // buffered stores in program order
	data    []byte           // their bytes, back to back
	bump    uint64           // pending bump pointer
	heads   [nClasses]uint64 // pending free-list heads, for classes in headSet
	headSet uint32           // bit c set: heads[c] overrides the stored head
	allocs  int
	frees   int
}

// writeOp is one buffered store: n bytes at data[at:] destined for off.
type writeOp struct {
	off   uint64
	at, n int
}

// bytes returns op's bytes.
func (st *txState) bytes(op writeOp) []byte { return st.data[op.at : op.at+op.n] }

// Begin starts a transaction. Nested transactions are a programming error
// and panic.
func (a *Arena) Begin() *Tx {
	if a.tx != nil {
		panic(ErrTxActive)
	}
	a.cur = txState{ops: a.cur.ops[:0], data: a.cur.data[:0], bump: a.readU64(offBump)}
	a.tx = &Tx{a: a}
	return a.tx
}

// end closes the transaction and releases the arena's state to the next.
func (tx *Tx) end() {
	tx.closed = true
	tx.a.tx = nil
}

// Update runs fn inside a transaction and commits; any error aborts.
func (a *Arena) Update(fn func(tx *Tx) error) error {
	tx := a.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	tx.Commit()
	return nil
}

// WriteU64 buffers a u64 store.
func (tx *Tx) WriteU64(off, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	tx.WriteBytes(off, b[:])
}

// WriteBytes buffers a byte-range store.
func (tx *Tx) WriteBytes(off uint64, data []byte) {
	if tx.closed {
		panic("pmobj: write on closed tx")
	}
	st := &tx.a.cur
	st.ops = append(st.ops, writeOp{off: off, at: len(st.data), n: len(data)})
	st.data = append(st.data, data...)
}

// ReadU64 reads a u64 with read-your-writes semantics: the latest buffered
// store to off wins, falling back to the committed state. A closed
// transaction no longer has stores of its own and reads the committed state.
func (tx *Tx) ReadU64(off uint64) uint64 {
	if !tx.closed {
		st := &tx.a.cur
		for i := len(st.ops) - 1; i >= 0; i-- {
			op := st.ops[i]
			if off >= op.off && off+8 <= op.off+uint64(op.n) {
				return binary.BigEndian.Uint64(st.bytes(op)[off-op.off:])
			}
		}
	}
	return tx.a.readU64(off)
}

// SetRoot stores the application root offset.
func (tx *Tx) SetRoot(off uint64) { tx.WriteU64(offRoot, off) }

// headOf reads a free-list head with the transaction overlay.
func (tx *Tx) headOf(c int) uint64 {
	if st := &tx.a.cur; st.headSet&(1<<c) != 0 {
		return st.heads[c]
	}
	return tx.a.readU64(uint64(offFreeBase + 8*c))
}

// setHead records a pending free-list head for size class c.
func (tx *Tx) setHead(c int, h uint64) {
	st := &tx.a.cur
	st.heads[c] = h
	st.headSet |= 1 << c
}

// Alloc reserves a block of at least n bytes and returns its offset. The
// allocation becomes durable only if the transaction commits.
func (tx *Tx) Alloc(n int) (uint64, error) {
	if tx.closed {
		panic("pmobj: alloc on closed tx")
	}
	c, err := classFor(n)
	if err != nil {
		return 0, err
	}
	st := &tx.a.cur
	if head := tx.headOf(c); head != 0 {
		// Pop the free list; the next pointer lives in the block's first 8
		// bytes and may have been written by this very transaction (free
		// then alloc), so use the overlay read.
		tx.setHead(c, tx.ReadU64(head))
		st.allocs++
		return head, nil
	}
	size := uint64(classSize(c))
	off := st.bump
	if off+size > uint64(tx.a.dev.Len()) {
		return 0, fmt.Errorf("%w: need %d bytes past %d (device %d)",
			ErrOutOfMemory, size, off, tx.a.dev.Len())
	}
	st.bump += size
	st.allocs++
	return off, nil
}

// Free returns a block of (original request size) n at off to its size
// class's free list.
func (tx *Tx) Free(off uint64, n int) {
	if tx.closed {
		panic("pmobj: free on closed tx")
	}
	c, err := classFor(n)
	if err != nil {
		panic("pmobj: free of oversized block")
	}
	tx.WriteU64(off, tx.headOf(c))
	tx.setHead(c, off)
	tx.a.cur.frees++
}

// Abort discards the transaction: nothing reaches the device.
func (tx *Tx) Abort() { tx.end() }

// Commit makes every buffered write (and the allocator state) durable
// atomically:
//
//  1. Serialize all ops into the redo region and persist.
//  2. Persist the committed flag (the linearization point).
//  3. Apply ops to their home locations and persist.
//  4. Clear the flag.
//
// A crash before (2) discards the transaction; after (2), Open/Reopen
// replays it.
func (tx *Tx) Commit() {
	if tx.closed {
		panic("pmobj: double commit")
	}
	a := tx.a
	st := &a.cur
	// Fold allocator state into the op list, size classes in index order:
	// op order fixes the redo-log byte layout and the stage-3 apply order,
	// both of which a mid-commit crash exposes.
	tx.WriteU64(offBump, st.bump)
	for c := 0; c < nClasses; c++ {
		if st.headSet&(1<<c) != 0 {
			tx.WriteU64(uint64(offFreeBase+8*c), st.heads[c])
		}
	}

	base := a.redoBase()
	var total int
	for _, op := range st.ops {
		total += 12 + op.n
	}
	if redoOps+total > a.redoBytes {
		panic(fmt.Sprintf("pmobj: transaction too large for redo region (%d > %d)",
			total, a.redoBytes-redoOps))
	}
	// (1) write ops into the redo region.
	pos := base + redoOps
	var hdr [8]byte
	for _, op := range st.ops {
		var meta [12]byte
		binary.BigEndian.PutUint64(meta[:8], op.off)
		binary.BigEndian.PutUint32(meta[8:], uint32(op.n))
		mustWrite(a, pos, meta[:])
		mustWrite(a, pos+12, st.bytes(op))
		pos += 12 + uint64(op.n)
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(st.ops)))
	binary.BigEndian.PutUint32(hdr[4:], uint32(total))
	mustWrite(a, base+redoCount, hdr[:])
	a.persist(int(base+redoCount), 8+total)
	if a.CrashHook != nil && a.CrashHook(1) {
		tx.end()
		return
	}
	// (2) committed flag: linearization point.
	a.writeU64(base+redoFlag, magic)
	a.persist(int(base+redoFlag), 8)
	if a.CrashHook != nil && a.CrashHook(2) {
		tx.end()
		return
	}
	// (3) apply home-location writes.
	for i, op := range st.ops {
		mustWrite(a, op.off, st.bytes(op))
		a.persist(int(op.off), op.n)
		if i == len(st.ops)/2 && a.CrashHook != nil && a.CrashHook(3) {
			tx.end()
			return
		}
	}
	// (4) clear the flag.
	a.writeU64(base+redoFlag, 0)
	a.persist(int(base+redoFlag), 8)

	a.stats.Commits++
	a.stats.Allocs += uint64(st.allocs)
	a.stats.Frees += uint64(st.frees)
	tx.end()
}

// mustWrite stores bytes without persisting them; Commit batches redo-region
// writes and covers each group with one a.persist barrier.
func mustWrite(a *Arena, off uint64, data []byte) {
	//pmnetlint:ignore persistcover barrier delegated to caller: Commit persists each write group explicitly
	if err := a.dev.WriteAt(data, int(off)); err != nil {
		panic("pmobj: commit write: " + err.Error())
	}
}
