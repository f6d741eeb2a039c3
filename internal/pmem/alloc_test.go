package pmem

// Allocation pin + micro-benchmark for the persistence hot path. Dirty-line
// tracking is a word-packed bitset scanned with TrailingZeros64, so WriteAt
// and Persist touch no heap at all.

import (
	"testing"

	"pmnet/internal/raceflag"
)

// TestPersistAllocs pins WriteAt + Persist to zero allocations.
func TestPersistAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	d := NewDevice(DefaultConfig(1 << 16))
	buf := make([]byte, 1024)
	round := func() {
		if err := d.WriteAt(buf, 4096); err != nil {
			t.Fatal(err)
		}
		if err := d.Persist(4096, len(buf)); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("WriteAt+Persist allocated %.1f objects per round, want 0", got)
	}
}

// BenchmarkPersistAll measures a scattered-write + whole-device barrier
// cycle: the PersistAll scan must skip clean words quickly and flush only the
// dirty lines.
func BenchmarkPersistAll(b *testing.B) {
	const capacity = 1 << 20
	d := NewDevice(DefaultConfig(capacity))
	buf := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			off := ((i*8 + j) * 4096) % capacity
			if err := d.WriteAt(buf, off); err != nil {
				b.Fatal(err)
			}
		}
		d.PersistAll()
	}
}

// BenchmarkNewDevice measures building a 128 MiB device, the size of a KV
// arena. The media materializes on first touch, so construction costs the
// dirty bitset and slot index, not the capacity.
func BenchmarkNewDevice(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDevice(DefaultConfig(128 << 20))
		if d.Len() != 128<<20 {
			b.Fatal("wrong capacity")
		}
	}
}

// BenchmarkWritePersistPowerFail drives the persist-heavy path a pmobj commit
// takes: line-sized writes each followed by its barrier, a few writes left
// dirty, then a power failure that must restore only those lines.
func BenchmarkWritePersistPowerFail(b *testing.B) {
	const capacity = 1 << 20
	d := NewDevice(DefaultConfig(capacity))
	buf := make([]byte, 64)
	round := func(i int) {
		for j := 0; j < 12; j++ {
			off := ((i*12 + j) * 4160) % (capacity - len(buf))
			if err := d.WriteAt(buf, off); err != nil {
				b.Fatal(err)
			}
			if j%4 == 3 {
				continue // left dirty for the power failure
			}
			if err := d.Persist(off, len(buf)); err != nil {
				b.Fatal(err)
			}
		}
		d.PowerFail()
	}
	round(0) // grows the pre-image slab to its steady-state size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}
