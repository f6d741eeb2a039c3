// Package pmem simulates a byte-addressable persistent memory device.
//
// It stands in for the battery-backed DRAM / Optane DCPMM used by the PMNet
// paper (§V-A): writes land in a volatile buffer first and only become
// durable after an explicit persist (or the modelled media latency elapses,
// for the DMA queue in queue.go). A power failure discards everything that
// had not reached the persistence domain, which is exactly the property the
// PMNet recovery protocol depends on.
package pmem

import (
	"errors"
	"fmt"
	"math/bits"

	"pmnet/internal/sim"
)

// Config describes the simulated device. Defaults follow the paper: the
// FPGA's DRAM write latency is 273 ns ("close to Optane PM's write latency")
// and the per-DIMM bandwidth is 2.5 GB/s (§VII).
type Config struct {
	Capacity     int      // bytes of persistent media
	WriteLatency sim.Time // media write (persist) latency per operation
	ReadLatency  sim.Time // media read latency per operation
	BandwidthBps float64  // media bandwidth in bytes per second
	LineSize     int      // persistence granularity in bytes
}

// DefaultConfig returns the paper-calibrated device configuration with the
// given capacity.
func DefaultConfig(capacity int) Config {
	return Config{
		Capacity:     capacity,
		WriteLatency: 273,   // ns, §V-A
		ReadLatency:  170,   // ns, Optane-class read
		BandwidthBps: 2.5e9, // 2.5 GB/s, §VII
		LineSize:     256,   // Optane internal write granularity
	}
}

// Errors returned by Device operations.
var (
	ErrOutOfRange = errors.New("pmem: access out of range")
)

// Stats counts device activity for reporting and tests.
type Stats struct {
	Writes        uint64
	BytesWritten  uint64
	Reads         uint64
	BytesRead     uint64
	Persists      uint64
	PowerFailures uint64
}

// Device is a simulated PM DIMM. It keeps one image of the media, the
// volatile view a running program reads back, plus a pre-image of every line
// dirtied since its last persist: that line's durable content, saved when a
// clean line is first written. The persistent view is therefore the image
// with every dirty line replaced by its pre-image. WriteAt saves pre-images
// and marks lines dirty; Persist only clears dirty bits; PowerFail writes the
// pre-images back, so it costs the dirty lines, not the capacity.
//
// Device is not safe for concurrent use; in this codebase every device is
// owned by a single simulated component on the single-threaded virtual clock.
type Device struct {
	cfg        Config
	mem        *media
	dirty      []uint64 // bitset, one bit per line
	dirtyLines int      // population count of dirty, kept incrementally

	// Pre-images in the order their lines were dirtied: pre holds LineSize
	// bytes per slot, and preLine[i] is the line slot i belongs to. A slot
	// goes stale when its line is persisted; if the line is dirtied again it
	// gets a newer slot. PowerFail restores slots oldest first, skipping
	// clean lines, so a dirty line ends at its newest slot's content.
	pre     []byte
	preLine []int

	stats Stats
}

// NewDevice creates a zeroed device. It panics on a non-positive capacity or
// line size: those are construction-time programming errors.
func NewDevice(cfg Config) *Device {
	if cfg.Capacity <= 0 {
		panic("pmem: non-positive capacity")
	}
	if cfg.LineSize <= 0 {
		cfg.LineSize = 256
	}
	lines := (cfg.Capacity + cfg.LineSize - 1) / cfg.LineSize
	return &Device{
		cfg:   cfg,
		mem:   newMedia(cfg.Capacity),
		dirty: make([]uint64, (lines+63)/64),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Len returns the device capacity in bytes.
func (d *Device) Len() int { return d.cfg.Capacity }

// Stats returns a copy of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

func (d *Device) check(off, n int) error {
	if off < 0 || n < 0 || off+n > d.cfg.Capacity {
		return fmt.Errorf("%w: [%d, %d) of %d", ErrOutOfRange, off, off+n, d.cfg.Capacity)
	}
	return nil
}

func (d *Device) isDirty(line int) bool { return d.dirty[line>>6]&(1<<(line&63)) != 0 }

// slotBytes returns pre-image slot i. When capacity is not a multiple of
// LineSize the last line is short; copies to and from the image clip it.
func (d *Device) slotBytes(i int) []byte {
	return d.pre[i*d.cfg.LineSize : (i+1)*d.cfg.LineSize]
}

// savePreImage appends a slot holding clean line's current, durable content.
// Once stale slots outnumber the dirty lines by 64 it compacts first, so the
// slab stays within twice the dirty footprint.
func (d *Device) savePreImage(line int) {
	if len(d.preLine) >= 2*d.dirtyLines+64 {
		d.compact()
	}
	d.preLine = append(d.preLine, line)
	d.pre = append(d.pre, make([]byte, d.cfg.LineSize)...)
	d.mem.read(d.slotBytes(len(d.preLine)-1), line*d.cfg.LineSize)
}

// compact keeps only the newest slot of each dirty line. Walking from the
// newest slot down, it clears each kept line's dirty bit to mark it seen and
// packs the kept slots at the top; then it moves them to the bottom and sets
// their bits again.
func (d *Device) compact() {
	n := len(d.preLine)
	k := n
	for i := n - 1; i >= 0; i-- {
		line := d.preLine[i]
		if !d.isDirty(line) {
			continue
		}
		d.dirty[line>>6] &^= 1 << (line & 63)
		k--
		d.preLine[k] = line
		copy(d.slotBytes(k), d.slotBytes(i))
	}
	d.preLine = d.preLine[:copy(d.preLine, d.preLine[k:])]
	d.pre = d.pre[:copy(d.pre, d.pre[k*d.cfg.LineSize:])]
	for _, line := range d.preLine {
		d.dirty[line>>6] |= 1 << (line & 63)
	}
}

// WriteAt stores p into the volatile view at off and marks the touched lines
// dirty. The data is NOT durable until Persist covers it.
func (d *Device) WriteAt(p []byte, off int) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	for line := off / d.cfg.LineSize; line <= (off+len(p)-1)/d.cfg.LineSize && len(p) > 0; line++ {
		if !d.isDirty(line) {
			d.savePreImage(line)
			d.dirty[line>>6] |= 1 << (line & 63)
			d.dirtyLines++
		}
	}
	d.mem.write(p, off)
	d.stats.Writes++
	d.stats.BytesWritten += uint64(len(p))
	return nil
}

// writeDurable is WriteAt followed by Persist over the same range, fused:
// the lines it touches are durable as soon as it returns, so a line that was
// clean needs no pre-image. The DMA queue retires its writes through it.
func (d *Device) writeDurable(p []byte, off int) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	d.mem.write(p, off)
	d.stats.Writes++
	d.stats.BytesWritten += uint64(len(p))
	if len(p) > 0 {
		d.clean(off/d.cfg.LineSize, (off+len(p)-1)/d.cfg.LineSize)
		d.stats.Persists++
	}
	return nil
}

// ReadAt fills p from the volatile view at off.
func (d *Device) ReadAt(p []byte, off int) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	d.mem.read(p, off)
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(p))
	return nil
}

// Persist makes the range [off, off+n) durable by clearing the dirty bits of
// the lines it covers; their pre-images go stale. This models clwb/sfence (or
// the DMA engine's write completion) at line granularity: persisting any byte
// of a line persists the whole line, as on real hardware.
func (d *Device) Persist(off, n int) error {
	if err := d.check(off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	d.clean(off/d.cfg.LineSize, (off+n-1)/d.cfg.LineSize)
	d.stats.Persists++
	return nil
}

// clean marks the lines [first, last] durable. When no dirty line is left,
// every pre-image is stale and the slab empties.
func (d *Device) clean(first, last int) {
	for w := first >> 6; w <= last>>6; w++ {
		word := d.dirty[w] & d.rangeMask(w, first, last)
		d.dirty[w] &^= word
		d.dirtyLines -= bits.OnesCount64(word)
	}
	if d.dirtyLines == 0 {
		d.pre = d.pre[:0]
		d.preLine = d.preLine[:0]
	}
}

// rangeMask returns the bits of dirty word w that fall inside the line range
// [first, last].
func (d *Device) rangeMask(w, first, last int) uint64 {
	mask := ^uint64(0)
	if w == first>>6 {
		mask &= ^uint64(0) << (uint(first) & 63)
	}
	if w == last>>6 {
		if r := uint(last) & 63; r != 63 {
			mask &= 1<<(r+1) - 1
		}
	}
	return mask
}

// PersistAll flushes every dirty line. The whole-device range can only fail
// on a corrupted Device, so rather than silently dropping the barrier — the
// exact bug class persistcover exists to catch — a failure panics.
func (d *Device) PersistAll() {
	if err := d.Persist(0, d.cfg.Capacity); err != nil {
		panic("pmem: persist all: " + err.Error())
	}
}

// Persisted reports whether the whole range [off, off+n) is durable (no
// dirty line overlaps it).
func (d *Device) Persisted(off, n int) bool {
	if d.check(off, n) != nil || n == 0 {
		return n == 0
	}
	first := off / d.cfg.LineSize
	last := (off + n - 1) / d.cfg.LineSize
	for w := first >> 6; w <= last>>6; w++ {
		if d.dirty[w]&d.rangeMask(w, first, last) != 0 {
			return false
		}
	}
	return true
}

// DirtyLines returns how many lines are dirty (written but not yet durable).
// Kept incrementally so the observability gauge can sample it on the hot
// path without an O(capacity/line) bitset scan.
func (d *Device) DirtyLines() int { return d.dirtyLines }

// PowerFail simulates an abrupt power loss: every dirty line reverts to its
// pre-image and all dirty flags clear. Every dirty line has a slot, so the
// slab alone names the lines to restore. The device remains usable
// afterwards (intermittent-failure model, §IV-E1).
func (d *Device) PowerFail() {
	for i, line := range d.preLine {
		if d.isDirty(line) {
			d.mem.write(d.slotBytes(i), line*d.cfg.LineSize)
		}
	}
	// Bits clear only after the restore pass: a line's newer slot must still
	// find the line dirty.
	for _, line := range d.preLine {
		d.dirty[line>>6] &^= 1 << (line & 63)
	}
	d.dirtyLines = 0
	d.pre = d.pre[:0]
	d.preLine = d.preLine[:0]
	d.stats.PowerFailures++
}

// WriteCost returns the modelled virtual-time cost of persisting n bytes:
// media latency plus serialization at the device bandwidth.
func (d *Device) WriteCost(n int) sim.Time {
	ser := sim.Time(float64(n) / d.cfg.BandwidthBps * 1e9)
	return d.cfg.WriteLatency + ser
}

// ReadCost returns the modelled cost of reading n bytes.
func (d *Device) ReadCost(n int) sim.Time {
	ser := sim.Time(float64(n) / d.cfg.BandwidthBps * 1e9)
	return d.cfg.ReadLatency + ser
}

// BDPBits computes a bandwidth-delay product in bits (Equations 1 and 2 of
// the paper): delay × bandwidth.
func BDPBits(delay sim.Time, bandwidthBitsPerSec float64) float64 {
	return float64(delay) / 1e9 * bandwidthBitsPerSec
}

// BDPLogBytes returns the PM capacity in bytes needed to hold all in-flight
// update requests: Equation 1 with the worst-case RTT.
func BDPLogBytes(maxRTT sim.Time, networkBitsPerSec float64) int {
	return int(BDPBits(maxRTT, networkBitsPerSec) / 8)
}

// BDPQueueBytes returns the SRAM log-queue size in bytes needed to hide the
// PM access latency: Equation 2.
func BDPQueueBytes(pmLatency sim.Time, networkBitsPerSec float64) int {
	return int(BDPBits(pmLatency, networkBitsPerSec) / 8)
}
