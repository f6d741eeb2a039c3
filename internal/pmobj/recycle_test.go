package pmobj

// Transactions recycle the arena's op list and data buffer. These tests pin
// the two ways recycling could leak: a finished Tx writing into its
// successor's buffers, and one transaction observing another's stores.

import (
	"encoding/binary"
	"testing"

	"pmnet/internal/raceflag"
)

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// redoOpCount returns the op count of the last redo record Commit wrote.
func redoOpCount(a *Arena) uint32 {
	return binary.BigEndian.Uint32(a.ReadBytes(a.redoBase()+redoCount, 4))
}

func TestClosedTxPanicsAfterRecycle(t *testing.T) {
	finishers := map[string]func(a *Arena, tx *Tx){
		"committed": func(_ *Arena, tx *Tx) { tx.Commit() },
		"aborted":   func(_ *Arena, tx *Tx) { tx.Abort() },
		"crash-hook abandoned": func(a *Arena, tx *Tx) {
			a.CrashHook = func(stage int) bool { return stage == 2 }
			tx.Commit()
			a.CrashHook = nil
		},
		"dropped by Reopen": func(a *Arena, _ *Tx) {
			if err := a.Reopen(); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, finish := range finishers {
		a := newArena(t, 1<<20)
		old := a.Begin()
		off, err := old.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		old.WriteU64(off, 1)
		finish(a, old)

		// The successor now owns the recycled buffers.
		next := a.Begin()
		next.WriteU64(off+8, 2)
		mustPanic(t, name+" WriteU64", func() { old.WriteU64(off, 99) })
		mustPanic(t, name+" WriteBytes", func() { old.WriteBytes(off, []byte("stale")) })
		mustPanic(t, name+" Alloc", func() { _, _ = old.Alloc(16) })
		mustPanic(t, name+" Free", func() { old.Free(off, 64) })
		mustPanic(t, name+" Commit", func() { old.Commit() })
		if got := old.ReadU64(off + 8); got == 2 {
			t.Errorf("%s: finished tx read its successor's buffered store", name)
		}
		next.Commit()
		if got := redoOpCount(a); got != 2 { // off+8, plus the folded bump pointer
			t.Errorf("%s: successor committed %d ops, want 2", name, got)
		}
		if got := a.ReadU64(off + 8); got != 2 {
			t.Errorf("%s: successor's store lost: %d", name, got)
		}
	}
}

func TestBackToBackTxsDoNotShareOps(t *testing.T) {
	a := newArena(t, 1<<20)
	var off uint64
	if err := a.Update(func(tx *Tx) error {
		var err error
		off, err = tx.Alloc(64)
		tx.WriteU64(off, 7)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// An aborted transaction's stores must not reach the next one.
	tx := a.Begin()
	tx.WriteU64(off, 100)
	tx.WriteBytes(off+8, []byte("abortedX"))
	tx.Abort()
	tx = a.Begin()
	if got := tx.ReadU64(off); got != 7 {
		t.Fatalf("new tx read %d through a previous tx's aborted store, want 7", got)
	}
	tx.WriteU64(off+16, 5)
	tx.Commit()
	if got := a.ReadU64(off); got != 7 {
		t.Fatalf("aborted store applied by the next commit: %d", got)
	}
	if got := string(a.ReadBytes(off+8, 8)); got == "abortedX" {
		t.Fatal("aborted bytes applied by the next commit")
	}
	if got := redoOpCount(a); got != 2 {
		t.Fatalf("commit logged %d ops, want 2 (its store and the bump pointer)", got)
	}

	// A larger transaction followed by a smaller one: the second must not
	// replay the tail of the first's op list.
	if err := a.Update(func(tx *Tx) error {
		for i := uint64(0); i < 8; i++ {
			tx.WriteU64(off+8*i, 1000+i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Update(func(tx *Tx) error {
		tx.WriteU64(off, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := redoOpCount(a); got != 2 {
		t.Fatalf("small commit after a large one logged %d ops, want 2", got)
	}
	for i := uint64(1); i < 8; i++ {
		if got := a.ReadU64(off + 8*i); got != 1000+i {
			t.Fatalf("word %d = %d, want %d", i, got, 1000+i)
		}
	}
}

// TestTxAllocs pins a warm transaction cycle to at most one allocation: the
// Tx header. Ops, their bytes and the pending free-list heads all live in
// buffers the arena recycles.
func TestTxAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	a := newArena(t, 1<<20)
	payload := []byte("sixteen byte val")
	cycle := func() {
		tx := a.Begin()
		off, err := tx.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		tx.WriteU64(off, 42)
		tx.WriteBytes(off+8, payload)
		tx.Free(off, 64)
		tx.Commit()
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got > 1 {
		t.Errorf("warm transaction cycle allocated %.1f objects, want <= 1", got)
	}
}
