package sim

// Cancel-heavy stress of the engine's node pool and heap under epoch-style
// bounded execution: the conservative-PDES runner (internal/sim/pdes) drives
// engines through many short RunUntil windows, so Event handles routinely
// survive across window boundaries — scheduled in one window, cancelled or
// fired in a later one. The generation-tagged pool must never let a recycled
// node leak a stale callback through an old handle, and the heap must stay
// consistent through arbitrary interleavings of schedule, cancel, and fire.

import (
	"fmt"
	"testing"

	"pmnet/internal/raceflag"
)

// TestCancelStormAcrossWindows runs a deterministic schedule/cancel storm
// through thousands of short RunUntil windows and verifies (a) cancelled
// events never fire, (b) every surviving event fires exactly once, (c) the
// firing log is identical to an unwindowed run of the same storm.
func TestCancelStormAcrossWindows(t *testing.T) {
	type record struct {
		id    int
		ev    Event
		dead  bool
		fired bool
	}
	storm := func(windowed bool) []string {
		eng := NewEngine()
		r := NewRand(42)
		var log []string
		live := make([]*record, 0, 512)
		next := 0
		var tick func()
		tick = func() {
			now := eng.Now()
			// Schedule a burst of future events, some several windows out.
			for k := 0; k < 8; k++ {
				rec := &record{id: next}
				next++
				delay := Time(1 + r.Intn(300))
				rec.ev = eng.At(now+delay, func() {
					if rec.dead {
						log = append(log, fmt.Sprintf("ZOMBIE %d", rec.id))
						return
					}
					rec.fired = true
					log = append(log, fmt.Sprintf("t=%d fire %d", eng.Now(), rec.id))
				})
				live = append(live, rec)
			}
			// Cancel a deterministic subset of everything still pending —
			// including events scheduled many ticks ago, so cancels and their
			// targets land in different windows.
			keep := live[:0]
			for _, rec := range live {
				if rec.fired {
					continue
				}
				if r.Intn(3) == 0 {
					rec.dead = true
					rec.ev.Cancel()
					log = append(log, fmt.Sprintf("t=%d cancel %d", now, rec.id))
					continue
				}
				keep = append(keep, rec)
			}
			live = keep
			if next < 4000 {
				eng.At(now+Time(10+r.Intn(40)), tick)
			}
		}
		eng.At(1, tick)
		if windowed {
			// Epoch-style driving: many short bounded windows, exactly how
			// the pdes runner advances a shard.
			for w := Time(0); eng.Pending() > 0; w += 37 {
				eng.RunUntil(w)
			}
		} else {
			eng.Run()
		}
		return log
	}

	base := storm(false)
	if len(base) == 0 {
		t.Fatal("storm produced no events")
	}
	for _, line := range base {
		if len(line) >= 6 && line[:6] == "ZOMBIE" {
			t.Fatalf("cancelled event fired: %q", line)
		}
	}
	windowed := storm(true)
	if len(windowed) != len(base) {
		t.Fatalf("windowed run logged %d lines, unwindowed %d", len(windowed), len(base))
	}
	for i := range base {
		if windowed[i] != base[i] {
			t.Fatalf("line %d: windowed %q != unwindowed %q", i, windowed[i], base[i])
		}
	}
}

// TestCancelStormBoundaries repeats the windowed-vs-unwindowed storm with
// delays aimed at the timer wheel's hazardous edges: level-rollover
// boundaries (where a pop cascades a whole slot down a level) and the
// overflow horizon (where far-future events sit in the sorted overflow list
// until the wheel turns into their segment and promotes them). Cancelling
// nodes parked exactly on those edges exercises unlinking from slots about
// to cascade and from the overflow list; runs under -race via `make
// race`/CI.
func TestCancelStormBoundaries(t *testing.T) {
	// One delay generator per hazard zone; each is stormed separately so a
	// failure names the boundary it broke on.
	zones := []struct {
		name  string
		delay func(r *Rand) Time
	}{
		{"rollover-l0l1", func(r *Rand) Time {
			return Time(wheelSlots - 4 + r.Intn(8)) // straddle the 64 ns slot edge
		}},
		{"rollover-high", func(r *Rand) Time {
			edge := Time(1) << (2 * wheelBits) // level-2 boundary
			return edge - 4 + Time(r.Intn(8))
		}},
		{"overflow-promotion", func(r *Rand) Time {
			// Half land just inside the wheel span, half just beyond it in
			// the overflow list; promotion interleaves them back.
			return wheelSpan - 50 + Time(r.Intn(100))
		}},
		{"deep-overflow", func(r *Rand) Time {
			return wheelSpan * Time(1+r.Intn(3)) // multiple whole-wheel turns
		}},
	}
	for _, zone := range zones {
		zone := zone
		t.Run(zone.name, func(t *testing.T) {
			type record struct {
				id    int
				ev    Event
				dead  bool
				fired bool
			}
			storm := func(windowed bool) []string {
				eng := NewEngine()
				r := NewRand(7)
				var log []string
				live := make([]*record, 0, 256)
				next := 0
				var tick func()
				tick = func() {
					now := eng.Now()
					for k := 0; k < 6; k++ {
						rec := &record{id: next}
						next++
						rec.ev = eng.At(now+zone.delay(r), func() {
							if rec.dead {
								log = append(log, fmt.Sprintf("ZOMBIE %d", rec.id))
								return
							}
							rec.fired = true
							log = append(log, fmt.Sprintf("t=%d fire %d", eng.Now(), rec.id))
						})
						live = append(live, rec)
					}
					keep := live[:0]
					for _, rec := range live {
						if rec.fired {
							continue
						}
						if r.Intn(3) == 0 {
							rec.dead = true
							rec.ev.Cancel()
							log = append(log, fmt.Sprintf("t=%d cancel %d", now, rec.id))
							continue
						}
						keep = append(keep, rec)
					}
					live = keep
					if next < 600 {
						// Re-arm from inside the hazard zone so successive
						// bursts cross the boundary from both sides.
						eng.At(now+1+Time(r.Intn(20)), tick)
					}
				}
				eng.At(1, tick)
				if windowed {
					// Drive deadlines that bracket each upcoming event:
					// one window ending just before it (forcing a peek and a
					// partial cascade toward it) and one just past it. This
					// lands RunUntil boundaries on cascade/promotion points
					// without striding the whole overflow horizon.
					for {
						nt, ok := eng.NextTime()
						if !ok {
							break
						}
						if nt > eng.Now()+1 {
							eng.RunUntil(nt - 1)
						}
						eng.RunUntil(nt + Time(wheelSlots-1))
					}
				} else {
					eng.Run()
				}
				return log
			}
			base := storm(false)
			if len(base) == 0 {
				t.Fatal("storm produced no events")
			}
			for _, line := range base {
				if len(line) >= 6 && line[:6] == "ZOMBIE" {
					t.Fatalf("cancelled event fired: %q", line)
				}
			}
			windowed := storm(true)
			if len(windowed) != len(base) {
				t.Fatalf("windowed run logged %d lines, unwindowed %d", len(windowed), len(base))
			}
			for i := range base {
				if windowed[i] != base[i] {
					t.Fatalf("line %d: windowed %q != unwindowed %q", i, windowed[i], base[i])
				}
			}
		})
	}
}

// TestCancelStormAllocs pins the storm's steady state: schedule + cancel +
// recycle through the generation-tagged pool stays allocation-free once the
// pool is warm (the sharded runner multiplies this pattern by the shard
// count, so a per-cancel allocation would scale with the fleet).
func TestCancelStormAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	eng := NewEngine()
	var sink int
	fn := func() { sink++ }
	round := func() {
		now := eng.Now()
		evs := [16]Event{}
		for k := range evs {
			evs[k] = eng.At(now+Time(5+k), fn)
		}
		for k := 0; k < len(evs); k += 2 {
			evs[k].Cancel()
		}
		eng.RunUntil(now + 40)
	}
	for i := 0; i < 10; i++ {
		round() // warm the node pool past the high-water mark
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("cancel storm allocated %.1f objects per round, want 0", got)
	}
}

// diffRef is the sorted reference scheduler for TestSchedulerDifferential:
// pending entries kept sorted by (at, seq), so its head is by construction
// the next event the engine must fire.
type diffRef struct {
	pending []*diffHandle
	seq     uint64
}

// diffHandle tracks one scheduled event on both sides.
type diffHandle struct {
	id    int
	at    Time
	seq   uint64
	ev    Event
	state int // diffPending, diffFired or diffCancelled
}

const (
	diffPending = iota
	diffFired
	diffCancelled
)

func (r *diffRef) less(a, b *diffHandle) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (r *diffRef) insert(h *diffHandle) {
	h.seq = r.seq
	r.seq++
	i := len(r.pending)
	for i > 0 && r.less(h, r.pending[i-1]) {
		i--
	}
	r.pending = append(r.pending, nil)
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = h
}

func (r *diffRef) remove(h *diffHandle) {
	for i, p := range r.pending {
		if p == h {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
	panic("diffRef: removing an entry that is not pending")
}

// TestSchedulerDifferential drives seeded interleavings of At/After at every
// wheel level and in the overflow list, Cancel (from outside and from inside
// callbacks, double cancels, stale handles to recycled nodes), Step and
// RunUntil with deadlines inside level ≥ 1 slots, and checks the engine in
// lockstep against a sorted reference: every firing must be the reference's
// head at the reference's time, and after every operation Pending, NextTime,
// the clock and every handle's Cancelled must match.
func TestSchedulerDifferential(t *testing.T) {
	// One delay per wheel level plus two overflow distances (> 68.7 s).
	delayUpTo := func(r *Rand, levels int) Time {
		lvl := r.Intn(levels)
		switch {
		case lvl == 0:
			return Time(r.Intn(wheelSlots))
		case lvl < wheelLevels:
			lo := Time(1) << (wheelBits * lvl)
			return lo + Time(r.Uint64()%uint64(lo*(wheelSlots-1)))
		case lvl == wheelLevels:
			return wheelSpan + Time(r.Uint64()%uint64(wheelSpan))
		default:
			return wheelSpan*Time(2+r.Intn(3)) + Time(r.Intn(wheelSlots))
		}
	}
	delay := func(r *Rand) Time { return delayUpTo(r, wheelLevels+2) }
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// NewRand streams of nearby seeds are shifts of one another;
			// spacing the seeds far apart keeps the interleavings distinct.
			r := NewRand(seed << 40)
			e := NewEngine()
			ref := &diffRef{}
			var all []*diffHandle
			// lastCancel maps a node to the handle that last cancelled it:
			// Cancelled() is true exactly for that handle's generation.
			lastCancel := map[*node]*diffHandle{}
			fired := 0

			var schedule func(d Time) *diffHandle
			cancel := func(h *diffHandle) {
				h.ev.Cancel()
				if h.state == diffPending {
					h.state = diffCancelled
					ref.remove(h)
					lastCancel[h.ev.n] = h
				}
			}
			// pick mostly targets pending events, otherwise any handle ever
			// issued (fired, cancelled, or stale on a recycled node).
			pick := func() *diffHandle {
				if len(ref.pending) > 0 && r.Intn(3) > 0 {
					return ref.pending[r.Intn(len(ref.pending))]
				}
				if len(all) == 0 {
					return nil
				}
				return all[r.Intn(len(all))]
			}
			schedule = func(d Time) *diffHandle {
				h := &diffHandle{id: len(all), at: e.Now() + d}
				h.ev = e.At(h.at, func() {
					if len(ref.pending) == 0 || ref.pending[0] != h {
						t.Fatalf("engine fired event %d at %v; reference head is %v", h.id, e.Now(), ref.pending)
					}
					if e.Now() != h.at {
						t.Fatalf("event %d fired at %v, scheduled for %v", h.id, e.Now(), h.at)
					}
					ref.pending = ref.pending[1:]
					h.state = diffFired
					fired++
					// Act from inside the callback: cancel own (already
					// fired) handle, cancel or double-cancel others,
					// schedule follow-ups.
					switch r.Intn(5) {
					case 0:
						cancel(h)
					case 1:
						if o := pick(); o != nil {
							cancel(o)
							cancel(o)
						}
					case 2, 3:
						schedule(delay(r))
					}
				})
				ref.insert(h)
				all = append(all, h)
				return h
			}
			check := func(op string) {
				t.Helper()
				if got, want := e.Pending(), len(ref.pending); got != want {
					t.Fatalf("after %s: Pending = %d, reference %d", op, got, want)
				}
				nt, ok := e.NextTime()
				if len(ref.pending) == 0 {
					if ok {
						t.Fatalf("after %s: NextTime = %v on an empty reference", op, nt)
					}
				} else if !ok || nt != ref.pending[0].at {
					t.Fatalf("after %s: NextTime = %v,%v, reference %v", op, nt, ok, ref.pending[0].at)
				}
				for _, h := range all {
					want := h.state == diffCancelled && lastCancel[h.ev.n] == h
					if got := h.ev.Cancelled(); got != want {
						t.Fatalf("after %s: event %d (state %d) Cancelled = %v, want %v", op, h.id, h.state, got, want)
					}
				}
			}

			for step := 0; step < 1500; step++ {
				switch op := r.Intn(10); {
				case op < 5:
					schedule(delay(r))
					check("At")
				case op < 7:
					if h := pick(); h != nil {
						cancel(h) // pending, fired (stale, possibly recycled) or cancelled
						check("Cancel")
					}
				case op == 7:
					before := fired
					ran := e.Step()
					if ran != (fired == before+1) {
						t.Fatalf("Step reported %v but fired %d events", ran, fired-before)
					}
					check("Step")
				default:
					// A deadline a short distance ahead, usually landing
					// inside a level ≥ 1 slot; sometimes just short of or at
					// the next event, sometimes far enough to drain.
					var deadline Time
					nt, ok := e.NextTime()
					switch k := r.Intn(8); {
					case ok && k < 2:
						deadline = nt - Time(r.Intn(2))
					case k == 2:
						deadline = e.Now() + delay(r)
					default:
						deadline = e.Now() + delayUpTo(r, 4)
					}
					deadline = max(deadline, e.Now())
					e.RunUntil(deadline)
					if len(ref.pending) > 0 && ref.pending[0].at <= deadline {
						t.Fatalf("RunUntil(%v) left event %d at %v pending", deadline, ref.pending[0].id, ref.pending[0].at)
					}
					if e.Now() != deadline {
						t.Fatalf("clock = %v after RunUntil(%v)", e.Now(), deadline)
					}
					check("RunUntil")
				}
			}
			e.Run()
			check("Run")
			if len(ref.pending) != 0 {
				t.Fatalf("Run left %d reference events pending", len(ref.pending))
			}
			if fired == 0 {
				t.Fatal("nothing fired")
			}
		})
	}
}
