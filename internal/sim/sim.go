// Package sim provides a deterministic discrete-event simulation engine.
//
// All PMNet experiments run on a virtual clock: events are scheduled at
// absolute virtual times (nanosecond resolution) and executed in time order.
// Nothing in the engine sleeps or reads the wall clock, so experiments are
// bit-reproducible given a seed and immune to host scheduling or GC jitter —
// the property that makes a faithful data-plane reproduction possible in Go.
//
// The engine is built for zero steady-state allocation: pending events live
// in a hierarchical timer wheel of pooled nodes recycled through a per-engine
// free list, so At/After/Run allocate nothing once the pool has warmed up.
// The pool is owned by exactly one engine and touched only from its (single)
// driving goroutine — never a sync.Pool, whose cross-goroutine stealing would
// make object identity depend on host scheduling.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations, mirroring time package conventions but on the virtual
// clock. A sim.Time difference is a duration in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a virtual-time difference to a time.Duration for display.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Micros returns the time expressed in (possibly fractional) microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return t.Duration().String() }

// noCancel is the cancelGen sentinel: handle generations start at zero and
// only ever increase, so no handle can match it.
const noCancel = ^uint64(0)

// Timer-wheel geometry: wheelLevels levels of wheelSlots slots each, level
// lvl's slots wheelSlots^lvl nanoseconds wide. Level 0 slots are 1 ns wide,
// so every node in a level-0 slot shares the same `at` and intra-slot FIFO
// order IS (at, seq) order. The wheel spans wheelSlots^wheelLevels ns
// (≈68.7 s) ahead of base; anything farther waits in the sorted overflow
// list until the wheel turns into its segment.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 6
	topShift    = wheelBits * wheelLevels
)

// Node locations beyond the wheel levels 0..wheelLevels-1.
const (
	ovLevel  = wheelLevels // in the sorted overflow list
	unqueued = 0xff        // free, or popped and about to fire
)

// node is one pooled event record, linked intrusively into a wheel slot's
// doubly linked FIFO list (or held in the sorted overflow list). Nodes are
// recycled through the engine's free list when they fire or are cancelled.
type node struct {
	at         Time
	seq        uint64
	fn         func()
	next, prev *node   // intrusive slot-list links
	eng        *Engine // owner, so Event.Cancel can reach the wheel
	// gen is bumped every time the node is recycled; an Event handle captures
	// the gen it was issued under, so handles to already-fired (and possibly
	// reused) nodes become inert instead of cancelling a stranger's event.
	gen uint64
	// cancelGen records the handle generation that cancelled this node
	// (noCancel otherwise), which lets that handle observe Cancelled() == true
	// after the node is reused — until a later handle to it cancels again.
	cancelGen uint64
	// lvl is the wheel level holding the node (ovLevel in the overflow list,
	// unqueued otherwise) and slot its slot there, so Cancel can unlink it.
	lvl, slot uint8
}

// Event is a handle to a scheduled callback. Events with equal times run in
// the order they were scheduled (FIFO tie-break via sequence numbers) so the
// engine is fully deterministic. The handle is a value: it stays valid —
// inert, not dangling — after the event fires and its node is recycled.
// The zero Event refers to nothing; Cancel on it is a no-op.
type Event struct {
	n   *node
	gen uint64
	at  Time
}

// Cancel prevents a pending event from running. Cancellation is eager and
// O(1) in the wheel: the node is unlinked from its slot list and recycled at
// once (an overflow-list node is cut out of the sorted slice). Cancelling an
// event that has already fired or been cancelled — even if its pooled node
// has since been reused — is a no-op.
func (ev Event) Cancel() {
	n := ev.n
	if n == nil || n.gen != ev.gen || n.lvl == unqueued {
		return
	}
	e := n.eng
	if n.lvl == ovLevel {
		e.ovRemove(n)
	} else {
		e.unlink(n)
	}
	n.cancelGen = ev.gen
	e.live--
	e.release(n)
}

// Cancelled reports whether this event was cancelled before running.
func (ev Event) Cancelled() bool { return ev.n != nil && ev.n.cancelGen == ev.gen }

// Time returns the virtual time the event is (or was) scheduled for.
func (ev Event) Time() Time { return ev.at }

// slotList is one wheel slot's FIFO of nodes (append at tail, consume at
// head, unlink anywhere). Within a level-0 slot all nodes share the same
// `at`, so FIFO order is exactly (at, seq) order.
type slotList struct {
	head, tail *node
}

// Engine owns the virtual clock and the pending event queue.
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now Time
	// base is the wheel's reference time. Invariants: base never decreases,
	// base ≤ now whenever the engine is between events (base only advances
	// in a cascade, to the start of a slot that opens at or before the run's
	// deadline, and the clock reaches at least that deadline), and every
	// node in the wheel has at ≥ base. Together these guarantee At(t ≥ now)
	// always places at or above base — no "past the wheel" case exists.
	base    Time
	seq     uint64
	live    int // queued events
	stopped bool
	ran     uint64
	slots   [wheelLevels][wheelSlots]slotList
	occ     [wheelLevels]uint64 // per-level occupancy bitmaps
	// ov holds nodes beyond the wheel span, sorted by (at, seq); ovOff is
	// the consumed-prefix cursor so promotion never memmoves the slice.
	ov    []*node
	ovOff int
	free  []*node // recycled nodes
	// pooled counts the nodes ever allocated; the next slab matches it (a
	// doubling pool, bounded by nodeSlabMax per slab).
	pooled int
}

// Slab bounds for warming the node pool: the first slab holds nodeSlabMin
// nodes, each later one as many as the pool already has, up to nodeSlabMax.
const (
	nodeSlabMin = 16
	nodeSlabMax = 1024
)

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsRun returns the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return e.live }

// NextTime returns the virtual time of the earliest pending event, or false
// when the queue is empty. The conservative PDES runner (internal/sim/pdes)
// peeks every shard's next event at each barrier to pick the epoch window;
// the peek never moves a node or advances the wheel, so it cannot disturb
// the event order.
func (e *Engine) NextTime() (Time, bool) {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if e.occ[lvl] == 0 {
			continue
		}
		// The lowest occupied slot of the lowest occupied level holds the
		// earliest pending node; at level ≥ 1 the slot list is unsorted, so
		// scan it for the minimum time.
		l := &e.slots[lvl][bits.TrailingZeros64(e.occ[lvl])]
		best := l.head.at
		for n := l.head.next; n != nil; n = n.next {
			best = min(best, n.at)
		}
		return best, true
	}
	if e.ovOff < len(e.ov) {
		return e.ov[e.ovOff].at, true
	}
	return 0, false
}

// get pops a recycled node. The free list must not be empty: At refills it
// through grow first, which keeps this pop small enough to inline.
func (e *Engine) get() *node {
	k := len(e.free) - 1
	n := e.free[k]
	e.free = e.free[:k]
	return n
}

// grow allocates one slab of nodes onto the free list while the pool warms
// up, so warming a pool of n nodes costs O(log n) allocations instead of n.
func (e *Engine) grow() {
	size := min(max(e.pooled, nodeSlabMin), nodeSlabMax)
	slab := make([]node, size)
	for i := range slab {
		slab[i].eng = e
		slab[i].cancelGen = noCancel
		slab[i].lvl = unqueued
		e.free = append(e.free, &slab[i])
	}
	e.pooled += size
}

// release returns an unlinked node to the free list. Bumping gen first makes
// every outstanding handle to it inert.
func (e *Engine) release(n *node) {
	n.gen++
	n.fn = nil
	n.next, n.prev = nil, nil
	n.lvl = unqueued
	e.free = append(e.free, n)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a model bug, not a recoverable condition.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if len(e.free) == 0 {
		e.grow()
	}
	n := e.get()
	n.at = t
	n.seq = e.seq
	n.fn = fn
	e.seq++
	e.live++
	e.place(n)
	return Event{n: n, gen: n.gen, at: t}
}

// After schedules fn to run d nanoseconds from now. Negative delays are
// clamped to zero (run "immediately", after currently-queued same-time work).
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(Time(math.MaxInt64))
}

// RunUntil executes events with time ≤ deadline. The clock is left at the
// time of the last executed event (or at deadline if it advanced past all
// events but the queue still has later entries).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		n := e.popUntil(deadline)
		if n == nil {
			break
		}
		e.fire(n)
	}
	if !e.stopped && e.now < deadline && deadline < Time(math.MaxInt64) {
		e.now = deadline
	}
}

// Step executes exactly one pending event and reports whether one ran. It
// shares popUntil/fire with RunUntil so the two paths cannot diverge.
func (e *Engine) Step() bool {
	n := e.popUntil(Time(math.MaxInt64))
	if n == nil {
		return false
	}
	e.fire(n)
	return true
}

// fire advances the clock to n and runs its callback. The node is recycled
// before the callback executes, so the callback may schedule new events that
// reuse it immediately.
func (e *Engine) fire(n *node) {
	e.now = n.at
	e.ran++
	fn := n.fn
	e.release(n)
	fn()
}

// Hierarchical timer wheel ordered by (at, seq) — the same total order as
// the previous 4-ary heap, with O(1) amortized schedule/pop for the
// near-future-clustered event populations network simulation produces
// (calendar-queue argument; same structure as the kernel timer wheel, but
// exact: nothing ever fires early or late, far events cascade down level by
// level as base advances).
//
// Placement: a node lands at the smallest level lvl whose slot width covers
// the highest bit where `at` differs from `base` — i.e. levels hold nodes
// sharing all digits above lvl with base. That makes the levels strictly
// time-ordered (everything at a lower level runs before anything at a
// higher one) and the slots within a level time-ordered by index, so the
// earliest pending node is always in the lowest occupied slot of the lowest
// occupied level; no ring wraparound exists to reason about.
//
// Placement is canonical: a cascade only rewrites base digits at and below
// the cascaded level, and every other node differs from base above them, so
// each node always sits where place would put it against the current base.
// Equal-`at` nodes therefore always share one list, whenever cascades
// happen — which is what lets the run loop cascade toward a deadline
// without first finding the exact minimum.
//
// FIFO exactness: level-0 slots are 1 ns wide, so equal-`at` nodes meet in
// one level-0 list. Direct inserts append in seq order (seq is monotone);
// cascades detach a whole higher-level list and re-place it preserving
// relative order into lower levels that are empty at that moment, so the
// re-placed nodes precede every later direct insert.

// place links a node into the wheel (or the sorted overflow list). The
// caller has set at and seq.
func (e *Engine) place(n *node) {
	d := uint64(n.at ^ e.base)
	var lvl int
	if d != 0 {
		lvl = (bits.Len64(d) - 1) / wheelBits
	}
	if lvl >= wheelLevels {
		e.ovInsert(n)
		return
	}
	slot := int(uint64(n.at)>>(wheelBits*lvl)) & wheelMask
	l := &e.slots[lvl][slot]
	n.lvl, n.slot = uint8(lvl), uint8(slot)
	n.next = nil
	n.prev = l.tail
	if l.tail == nil {
		l.head = n
	} else {
		l.tail.next = n
	}
	l.tail = n
	e.occ[lvl] |= 1 << uint(slot)
}

// unlink removes a wheel node from its slot list in O(1), clearing the
// slot's occupancy bit when the list empties.
func (e *Engine) unlink(n *node) {
	l := &e.slots[n.lvl][n.slot]
	if n.prev == nil {
		l.head = n.next
	} else {
		n.prev.next = n.next
	}
	if n.next == nil {
		l.tail = n.prev
	} else {
		n.next.prev = n.prev
	}
	if l.head == nil {
		e.occ[n.lvl] &^= 1 << n.slot
	}
}

// ovLess orders overflow nodes by (at, seq).
func ovLess(a, b *node) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// ovSearch returns the offset in the live overflow tail of the first node
// not ordered before n.
func (e *Engine) ovSearch(n *node) int {
	liveTail := e.ov[e.ovOff:]
	lo, hi := 0, len(liveTail)
	for lo < hi {
		mid := (lo + hi) / 2
		if ovLess(liveTail[mid], n) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return e.ovOff + lo
}

// ovInsert binary-inserts a node into the overflow list, keeping it sorted
// by (at, seq). Far-future scheduling is rare and usually in increasing time
// order, so the insert almost always appends.
func (e *Engine) ovInsert(n *node) {
	at := e.ovSearch(n)
	e.ov = append(e.ov, nil)
	copy(e.ov[at+1:], e.ov[at:])
	e.ov[at] = n
	n.lvl = ovLevel
}

// ovRemove cuts a cancelled node out of the sorted overflow list; (at, seq)
// is unique, so the binary search lands exactly on it.
func (e *Engine) ovRemove(n *node) {
	at := e.ovSearch(n)
	copy(e.ov[at:], e.ov[at+1:])
	e.ov[len(e.ov)-1] = nil
	e.ov = e.ov[:len(e.ov)-1]
	if e.ovOff == len(e.ov) {
		e.ov = e.ov[:0]
		e.ovOff = 0
	}
}

// popUntil removes and returns the earliest pending node if its time is
// ≤ deadline, or nil otherwise (including on an empty queue). Level-0 pops
// are O(1): the lowest occupied level-0 slot holds the exact minimum. When
// level 0 is empty, the lowest occupied higher slot cascades — but only if
// it opens at or before the deadline, so no slot is ever scanned for its
// minimum. Each node moves at most wheelLevels times over its lifetime
// (amortized O(1)).
func (e *Engine) popUntil(deadline Time) *node {
	for {
		if e.occ[0] != 0 {
			l := &e.slots[0][bits.TrailingZeros64(e.occ[0])]
			n := l.head
			if n.at > deadline {
				return nil
			}
			e.unlink(n)
			e.live--
			return n
		}
		if !e.cascade(deadline) {
			return nil
		}
	}
}

// cascade advances base to the earliest occupied slot (or the earliest
// overflow segment once the wheel is empty) and redistributes that slot's
// nodes to lower levels. It reports false, leaving the wheel untouched, when
// the queue is empty or that slot opens after deadline (every pending node
// is then later than deadline).
func (e *Engine) cascade(deadline Time) bool {
	for lvl := 1; lvl < wheelLevels; lvl++ {
		if e.occ[lvl] == 0 {
			continue
		}
		slot := bits.TrailingZeros64(e.occ[lvl])
		shift := uint(wheelBits * lvl)
		span := Time(1) << (shift + wheelBits)
		// All lower levels are empty, so the earliest pending time is inside
		// this slot: advance base to the slot's start and re-place its list.
		// Relative order is preserved, and every node lands at a lower level
		// (its differing bits vs the new base are below this slot's width).
		start := e.base&^(span-1) | Time(slot)<<shift
		if start > deadline {
			return false
		}
		e.base = start
		l := &e.slots[lvl][slot]
		n := l.head
		l.head, l.tail = nil, nil
		e.occ[lvl] &^= 1 << uint(slot)
		for n != nil {
			next := n.next
			e.place(n)
			n = next
		}
		return true
	}
	// Wheel empty: turn it into the earliest overflow segment and promote
	// that segment's (sorted) prefix.
	if e.ovOff == len(e.ov) || e.ov[e.ovOff].at > deadline {
		return false
	}
	first := e.ov[e.ovOff]
	e.base = first.at >> topShift << topShift
	for e.ovOff < len(e.ov) {
		m := e.ov[e.ovOff]
		if uint64(m.at)>>topShift != uint64(first.at)>>topShift {
			break
		}
		e.ov[e.ovOff] = nil
		e.ovOff++
		e.place(m)
	}
	if e.ovOff == len(e.ov) {
		e.ov = e.ov[:0]
		e.ovOff = 0
	}
	return true
}
