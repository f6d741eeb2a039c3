package netsim

// Equivalence and totality of the dense forwarding tables (fwd.go). The
// reference below is the straightforward map-based BFS over sorted link
// keys: every (node, destination) pair's egress link must match its
// single-path next hop, and under ECMP its equal-cost hop set, on the
// topologies the testbeds build — classic and partitioned.

import (
	"fmt"
	"slices"
	"testing"

	"pmnet/internal/sim"
)

// refRoutes computes, from a list of directed links, each node's single-path
// next hop and equal-cost next-hop set toward every destination: one BFS per
// destination over neighbours in ascending NodeID order.
func refRoutes(links [][2]NodeID) (hop map[[2]NodeID]NodeID, multi map[[2]NodeID][]NodeID) {
	adj := map[NodeID][]NodeID{}
	var nodes []NodeID
	for _, l := range links {
		if _, ok := adj[l[0]]; !ok {
			nodes = append(nodes, l[0])
		}
		adj[l[0]] = append(adj[l[0]], l[1])
	}
	slices.Sort(nodes)
	for _, nbs := range adj {
		slices.Sort(nbs)
	}
	hop = map[[2]NodeID]NodeID{}
	multi = map[[2]NodeID][]NodeID{}
	for _, dst := range nodes {
		dist := map[NodeID]int{dst: 0}
		queue := []NodeID{dst}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if _, seen := dist[nb]; !seen {
					dist[nb] = dist[cur] + 1
					hop[[2]NodeID{nb, dst}] = cur
					queue = append(queue, nb)
				}
			}
		}
		for _, v := range nodes {
			if d, ok := dist[v]; ok && d > 0 {
				for _, nb := range adj[v] {
					if dn, ok := dist[nb]; ok && dn == d-1 {
						multi[[2]NodeID{v, dst}] = append(multi[[2]NodeID{v, dst}], nb)
					}
				}
			}
		}
	}
	return hop, multi
}

// fwdTopo is a topology under test: switches, hosts and bidirectional links.
type fwdTopo struct {
	name     string
	switches []NodeID
	hosts    []NodeID
	links    [][2]NodeID
}

// chainTopo is the testbed's replicated PMNet chain: clients behind a ToR,
// two devices in series, then the server rack.
func chainTopo() fwdTopo {
	t := fwdTopo{name: "testbed-chain", switches: []NodeID{1000, 2000, 2001}}
	for c := NodeID(1); c <= 6; c++ {
		t.hosts = append(t.hosts, c)
		t.links = append(t.links, [2]NodeID{c, 1000})
	}
	t.links = append(t.links, [2]NodeID{1000, 2000}, [2]NodeID{2000, 2001})
	for s := NodeID(3000); s < 3003; s++ {
		t.hosts = append(t.hosts, s)
		t.links = append(t.links, [2]NodeID{2001, s})
	}
	return t
}

// fabricTopo wraps a generated fabric the way the testbed does: clients on
// the client edges, a ToR with two servers on the server edge.
func fabricTopo(name string, g Topology) fwdTopo {
	t := fwdTopo{name: name}
	for _, sw := range g.Switches {
		t.switches = append(t.switches, sw.ID)
	}
	for _, l := range g.Links {
		t.links = append(t.links, [2]NodeID{l.A, l.B})
	}
	t.switches = append(t.switches, 1000)
	t.links = append(t.links, [2]NodeID{g.ServerEdge, 1000})
	for c := 0; c < 2*len(g.ClientEdges); c++ {
		id := NodeID(c + 1)
		t.hosts = append(t.hosts, id)
		t.links = append(t.links, [2]NodeID{id, g.ClientEdges[c%len(g.ClientEdges)]})
	}
	for s := NodeID(3000); s < 3002; s++ {
		t.hosts = append(t.hosts, s)
		t.links = append(t.links, [2]NodeID{1000, s})
	}
	return t
}

func (tp fwdTopo) nodes() []NodeID { return append(slices.Clone(tp.switches), tp.hosts...) }

// directed lists both directions of every link.
func (tp fwdTopo) directed() [][2]NodeID {
	var d [][2]NodeID
	for _, l := range tp.links {
		d = append(d, l, [2]NodeID{l[1], l[0]})
	}
	return d
}

// build instantiates the topology as a classic network, or as a fabric whose
// partitions take nodes round-robin (so most links cross partitions).
func (tp fwdTopo) build(ecmp bool, parts int) (nets func(NodeID) *Network, freeze func()) {
	eng := sim.NewEngine()
	r := sim.NewRand(1)
	if parts == 0 {
		n := New(eng, r.Fork())
		for _, id := range tp.switches {
			NewSwitch(n, id, fmt.Sprint("sw", id), DefaultSwitchLatency)
		}
		for _, id := range tp.hosts {
			NewHost(n, id, fmt.Sprint("h", id), StackModel{}, 1, r.Fork())
		}
		for _, l := range tp.links {
			n.Connect(l[0], l[1], DefaultLink())
		}
		n.SetECMP(ecmp)
		return func(NodeID) *Network { return n }, func() {}
	}
	assign := make([]int, parts)
	fab := NewFabric([]*sim.Engine{eng}, assign, r)
	owner := map[NodeID]int{}
	for i, id := range tp.nodes() {
		owner[id] = i % parts
		if i < len(tp.switches) {
			NewSwitch(fab.Part(i%parts), id, fmt.Sprint("sw", id), DefaultSwitchLatency)
		} else {
			NewHost(fab.Part(i%parts), id, fmt.Sprint("h", id), StackModel{}, 1, r.Fork())
		}
	}
	for _, l := range tp.links {
		fab.Connect(l[0], l[1], DefaultLink())
	}
	fab.SetECMP(ecmp)
	return func(id NodeID) *Network { return fab.Part(owner[id]) }, fab.Freeze
}

// TestForwardingTableMatchesReference checks every (node, destination) pair
// of each topology, ECMP on and off, classic and partitioned: NextHop and
// the table's egress link agree with the reference BFS, and under ECMP the
// equal-cost link set is exactly the reference hop set.
func TestForwardingTableMatchesReference(t *testing.T) {
	topos := []fwdTopo{
		chainTopo(),
		fabricTopo("leaf-spine", LeafSpine(3, 2, 1, DefaultLink(), 2)),
		fabricTopo("fat-tree", FatTree(4, DefaultLink())),
	}
	for _, tp := range topos {
		refHop, refMulti := refRoutes(tp.directed())
		for _, ecmp := range []bool{false, true} {
			for _, parts := range []int{0, 3} {
				t.Run(fmt.Sprintf("%s/ecmp=%v/parts=%d", tp.name, ecmp, parts), func(t *testing.T) {
					netOf, freeze := tp.build(ecmp, parts)
					freeze()
					multipath := false
					for _, a := range tp.nodes() {
						n := netOf(a)
						if n.fwd == nil {
							n.computeRoutes()
						}
						ia := n.idx.lookup(a)
						for _, d := range tp.nodes() {
							if a == d {
								continue
							}
							want, ok := refHop[[2]NodeID{a, d}]
							if !ok {
								t.Fatalf("reference has no route %d->%d", a, d)
							}
							if got, ok := n.NextHop(a, d); !ok || got != want {
								t.Fatalf("NextHop(%d, %d) = %d,%v, reference %d", a, d, got, ok, want)
							}
							p := int(ia)*n.fwd.n + int(n.idx.lookup(d))
							l := n.fwd.egress[p]
							if l == nil || l.from != a || l.to != want {
								t.Fatalf("egress %d->%d = %+v, want link %d->%d", a, d, l, a, want)
							}
							if !ecmp {
								if n.fwd.ecmpOff != nil {
									t.Fatal("ECMP sets built with ECMP off")
								}
								continue
							}
							var got []NodeID
							for _, el := range n.fwd.ecmpLinks[n.fwd.ecmpOff[p]:n.fwd.ecmpOff[p+1]] {
								if el.from != a {
									t.Fatalf("ECMP link %d->%d listed for node %d", el.from, el.to, a)
								}
								got = append(got, el.to)
							}
							if !slices.Equal(got, refMulti[[2]NodeID{a, d}]) {
								t.Fatalf("ECMP set %d->%d = %v, reference %v", a, d, got, refMulti[[2]NodeID{a, d}])
							}
							if !slices.Contains(got, want) {
								t.Fatalf("single-path hop %d not in ECMP set %v", want, got)
							}
							multipath = multipath || len(got) > 1
							// The flow hash picks its member of the set.
							pkt := &Packet{From: a, To: d, SrcPort: 7, DstPort: 9}
							pick := n.nextHopFor(ia, a, pkt)
							if len(got) > 1 {
								if w := got[ecmpFlowHash(a, pkt)%uint64(len(got))]; pick.to != w {
									t.Fatalf("flow hash at %d toward %d chose %d, want %d", a, d, pick.to, w)
								}
							} else if pick != l {
								t.Fatalf("single-member set at %d toward %d chose %+v, want %+v", a, d, pick, l)
							}
						}
					}
					if ecmp && tp.name != "testbed-chain" && !multipath {
						t.Fatal("multipath topology produced no equal-cost set")
					}
				})
			}
		}
	}
}

// TestTransmitUnknownDestinations: a destination that is not a node — an
// unassigned id, a negative id, one far beyond any interned id — drops as
// DroppedDead and never panics or indexes out of range; so does an unknown
// sender.
func TestTransmitUnknownDestinations(t *testing.T) {
	rig := newRig(t, DefaultLink())
	dests := []NodeID{999, -1, -1 << 40, 1 << 40, maxNodeID, maxNodeID + 1}
	for i, to := range dests {
		rig.net.Transmit(&Packet{To: to, Raw: make([]byte, 8)}, 1)
		rig.eng.Run()
		if got := rig.net.Stats().DroppedDead; got != uint64(i+1) {
			t.Fatalf("Transmit to %d: DroppedDead = %d, want %d", to, got, i+1)
		}
	}
	for _, from := range []NodeID{999, -1, 1 << 40} {
		rig.net.Transmit(&Packet{To: 2, Raw: make([]byte, 8)}, from)
	}
	rig.eng.Run()
	if got, want := rig.net.Stats().DroppedDead, uint64(len(dests)+3); got != want {
		t.Fatalf("unknown senders: DroppedDead = %d, want %d", got, want)
	}
	if rig.net.Stats().Delivered != 0 {
		t.Fatal("a packet to or from a non-node was delivered")
	}
}

// TestAddNodeOutOfRangePanics: ids outside [0, maxNodeID] are rejected at
// AddNode rather than sizing the interning table after them.
func TestAddNodeOutOfRangePanics(t *testing.T) {
	for _, id := range []NodeID{-1, maxNodeID + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddNode(%d) did not panic", id)
				}
			}()
			net := New(sim.NewEngine(), sim.NewRand(1))
			NewSwitch(net, id, "bad", DefaultSwitchLatency)
		}()
	}
}

// TestSetNodeDownAfterTraffic: failing a node once the tables are built
// still drops traffic to and through it, and restoring it resumes delivery.
func TestSetNodeDownAfterTraffic(t *testing.T) {
	rig := newRig(t, DefaultLink())
	got := 0
	rig.h2.OnReceive(func(*Packet) { got++ })
	send := func() {
		rig.h1.Send(rawPacket(2, 64))
		rig.eng.Run()
	}
	send()
	if got != 1 {
		t.Fatalf("delivered %d before the failure, want 1", got)
	}
	rig.net.SetNodeDown(3, true) // the switch between h1 and h2
	send()
	if got != 1 || rig.net.Stats().DroppedDead != 1 {
		t.Fatalf("switch down: delivered %d, DroppedDead %d; want 1, 1", got, rig.net.Stats().DroppedDead)
	}
	if !rig.net.NodeDown(3) {
		t.Fatal("NodeDown(3) = false after SetNodeDown")
	}
	rig.net.SetNodeDown(3, false)
	rig.net.SetNodeDown(2, true) // the destination host
	send()
	if got != 1 || rig.net.Stats().DroppedDead != 2 {
		t.Fatalf("destination down: delivered %d, DroppedDead %d; want 1, 2", got, rig.net.Stats().DroppedDead)
	}
	rig.net.SetNodeDown(2, false)
	send()
	if got != 2 {
		t.Fatalf("delivered %d after restore, want 2", got)
	}
}

// TestTopologyChangeAfterTrafficRebuildsTables: on a classic network, nodes
// and links added after traffic has flowed are routed at the next Transmit.
func TestTopologyChangeAfterTrafficRebuildsTables(t *testing.T) {
	rig := newRig(t, DefaultLink())
	rig.h2.OnReceive(func(*Packet) {})
	rig.h1.Send(rawPacket(2, 64))
	rig.eng.Run()
	h4 := NewHost(rig.net, 4, "h4", StackModel{}, 1, sim.NewRand(4))
	got := 0
	h4.OnReceive(func(*Packet) { got++ })
	rig.h1.Send(rawPacket(4, 64))
	rig.eng.Run()
	if got != 0 || rig.net.Stats().DroppedDead != 1 {
		t.Fatalf("unconnected node: delivered %d, DroppedDead %d; want 0, 1", got, rig.net.Stats().DroppedDead)
	}
	rig.net.Connect(4, 3, DefaultLink())
	rig.h1.Send(rawPacket(4, 64))
	rig.eng.Run()
	if got != 1 {
		t.Fatalf("delivered %d after Connect, want 1", got)
	}
	if hop, ok := rig.net.NextHop(4, 1); !ok || hop != 3 {
		t.Fatalf("NextHop(4, 1) = %d,%v, want 3,true", hop, ok)
	}
}
