package netsim

// Allocation pin + micro-benchmark for the packet path. A packet's full
// journey — Transmit, link serialization, arrival, RX stack crossing, app
// callback, recycle — runs on pooled packets and pooled event payloads, so
// steady state must be allocation-free.

import (
	"testing"

	"pmnet/internal/raceflag"
	"pmnet/internal/sim"
	"pmnet/internal/trace"
)

// transmitRig is a two-host wire with a no-op receiver, the minimal topology
// that exercises every pooled record type on the packet path.
type transmitRig struct {
	eng *sim.Engine
	net *Network
	a   *Host
	b   *Host
}

func newTransmitRig() *transmitRig {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	n := New(eng, r)
	a := NewHost(n, 1, "a", StackModel{}, 1, r)
	b := NewHost(n, 2, "b", StackModel{}, 1, r)
	n.Connect(a.ID(), b.ID(), DefaultLink())
	b.OnReceive(func(*Packet) {})
	return &transmitRig{eng: eng, net: n, a: a, b: b}
}

// round pushes one raw packet a→b and drains the virtual clock.
func (rg *transmitRig) round() {
	pkt := rg.net.AllocPacket()
	pkt.To = rg.b.ID()
	pkt.Raw = append(pkt.Raw[:0], "ping-payload"...)
	rg.net.Transmit(pkt, rg.a.ID())
	rg.eng.Run()
}

// TestTransmitAllocs pins Network.Transmit plus delivery to zero steady-state
// allocations once the packet, txEnd, arrival, crossing, and engine-node
// pools have warmed up.
func TestTransmitAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rg := newTransmitRig()
	rg.round() // warm the pools and the route tables
	if got := testing.AllocsPerRun(100, rg.round); got != 0 {
		t.Errorf("Transmit+deliver allocated %.1f objects per packet, want 0", got)
	}
}

// TestTransmitTracedAllocs pins the traced packet path: with a bound tracer
// the journey emits stack/link records into the preallocated ring and must
// stay allocation-free, same as the untraced path.
func TestTransmitTracedAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rg := newTransmitRig()
	tr := trace.NewTracer(1 << 16)
	tr.Bind(rg.eng)
	rg.net.SetTracer(tr)
	rg.round() // warm pools; ring is preallocated by Bind
	if got := testing.AllocsPerRun(100, rg.round); got != 0 {
		t.Errorf("traced Transmit+deliver allocated %.1f objects per packet, want 0", got)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer recorded nothing on the traced path")
	}
}

// TestDropPathAllocs pins the drop paths — the packets a crashed server
// blackholes (dead destination) plus random loss — to zero steady-state
// allocations, traced and untraced. These paths run hottest exactly when
// the simulation is least healthy, so they must not start allocating.
func TestDropPathAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			rg := newTransmitRig()
			if traced {
				tr := trace.NewTracer(1 << 16)
				tr.Bind(rg.eng)
				rg.net.SetTracer(tr)
			}
			rg.round()                  // warm pools over the live path
			rg.net.SetNodeDown(2, true) // crash the receiver
			rg.round()                  // warm the drop path
			if got := testing.AllocsPerRun(100, rg.round); got != 0 {
				t.Errorf("dead-destination drop allocated %.1f objects per packet, want 0", got)
			}
			if s := rg.net.Stats(); s.DroppedDead == 0 {
				t.Fatal("drop path never taken")
			}
		})
	}
}

// BenchmarkTransmit measures one full packet journey per iteration.
func BenchmarkTransmit(b *testing.B) {
	rg := newTransmitRig()
	rg.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.round()
	}
}

// chainRig is host → switch → switch → host: three hops, two of them
// forwarding decisions at switches, the shape of every multi-hop path the
// testbeds build.
type chainRig struct {
	eng *sim.Engine
	net *Network
	a   *Host
}

// chainHops is the number of links one chainRig round traverses.
const chainHops = 3

func newChainRig() *chainRig {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	n := New(eng, r)
	a := NewHost(n, 1, "a", StackModel{}, 1, r)
	b := NewHost(n, 2, "b", StackModel{}, 1, r)
	NewSwitch(n, 10, "s0", DefaultSwitchLatency)
	NewSwitch(n, 11, "s1", DefaultSwitchLatency)
	n.Connect(1, 10, DefaultLink())
	n.Connect(10, 11, DefaultLink())
	n.Connect(11, 2, DefaultLink())
	b.OnReceive(func(*Packet) {})
	return &chainRig{eng: eng, net: n, a: a}
}

// round pushes one raw packet across the chain and drains the clock.
func (rg *chainRig) round() {
	pkt := rg.net.AllocPacket()
	pkt.To = 2
	pkt.Raw = append(pkt.Raw[:0], "ping-payload"...)
	rg.net.Transmit(pkt, rg.a.ID())
	rg.eng.Run()
}

// TestForwardChainAllocs pins the multi-hop path to zero steady-state
// allocations: switch forwarding adds a delayed transmit per hop, which
// must recycle like the rest.
func TestForwardChainAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rg := newChainRig()
	rg.round()
	if got := testing.AllocsPerRun(100, rg.round); got != 0 {
		t.Errorf("chain round allocated %.1f objects per packet, want 0", got)
	}
	if s := rg.net.Stats(); s.Delivered == 0 || s.DroppedDead != 0 {
		t.Fatalf("chain did not deliver: %+v", s)
	}
}

// BenchmarkForwardChain measures a packet's journey over the chain and
// reports it per hop: each hop is one forwarding decision, one link
// serialization and one arrival.
func BenchmarkForwardChain(b *testing.B) {
	rg := newChainRig()
	rg.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chainHops), "ns/hop")
}
