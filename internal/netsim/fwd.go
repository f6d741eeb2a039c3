package netsim

// Dense forwarding state. Every hop of every packet asks two questions — is
// this node alive, and which egress link leads toward the destination — so
// both are answered by index arithmetic on slices built once from the
// topology, never by hashing a NodeID. A nodeIndex interns NodeIDs to dense
// indexes as nodes are added; a fwdTable, built by BFS when routes are
// computed (Network.computeRoutes on a classic network, Fabric.Freeze on a
// partitioned one), holds the egress *link for every (forwarding node,
// destination) pair and, under ECMP, the equal-cost link set of every pair.

import (
	"cmp"
	"fmt"
	"slices"
)

// maxNodeID bounds node identities: the interning table is a slice indexed
// by NodeID, so ids must be small non-negative integers (builders assign them
// from fixed bases well below this).
const maxNodeID NodeID = 1<<20 - 1

// nodeIndex interns NodeIDs to dense indexes in AddNode order. A classic
// Network owns one; a Fabric shares one across its partitions, so a dense
// index names the same node in every partition.
type nodeIndex struct {
	slot  []int32  // NodeID -> dense index + 1; 0 = no such node
	ids   []NodeID // dense index -> NodeID
	names []string // dense index -> registered name
}

// add interns a new node, panicking on an out-of-range or duplicate id.
func (x *nodeIndex) add(id NodeID, name string) int32 {
	if id < 0 || id > maxNodeID {
		panic(fmt.Sprintf("netsim: node id %d (%s) outside [0, %d]", id, name, maxNodeID))
	}
	x.slot = growTo(x.slot, int(id)+1)
	if x.slot[id] != 0 {
		panic(fmt.Sprintf("netsim: duplicate node id %d (%s)", id, name))
	}
	i := int32(len(x.ids))
	x.slot[id] = i + 1
	x.ids = append(x.ids, id)
	x.names = append(x.names, name)
	return i
}

// lookup returns id's dense index, or -1 when no node has that id (negative
// and out-of-range ids included).
func (x *nodeIndex) lookup(id NodeID) int32 {
	if uint(id) < uint(len(x.slot)) {
		return x.slot[id] - 1
	}
	return -1
}

// growTo returns s extended with zero values to at least n elements.
func growTo[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// mustLookup returns the dense index of a node Connect is wiring.
func (x *nodeIndex) mustLookup(id NodeID) int32 {
	i := x.lookup(id)
	if i < 0 {
		panic(fmt.Sprintf("netsim: connect: unknown node %d", id))
	}
	return i
}

// fwdTable is the forwarding state for n nodes, row-major by forwarding
// node: pair p = from*n + dst.
type fwdTable struct {
	n      int
	egress []*link // single-path next-hop link per pair; nil = no route
	// ecmpOff is nil unless ECMP is on; the equal-cost egress links of pair
	// p are then ecmpLinks[ecmpOff[p]:ecmpOff[p+1]], in ascending next-hop
	// NodeID order.
	ecmpOff   []int32
	ecmpLinks []*link
}

// buildFwd computes the forwarding table of the topology whose directed
// links out of node i (dense index) are out[i]. One BFS per destination runs
// over incoming links in ascending neighbour NodeID order, so the parent a
// node discovers first — its single-path next hop — is a pure function of
// the topology, never of insertion order. Links always come in both
// directions (Connect), so this is the same tree a BFS over outgoing links
// builds. Under ECMP every neighbour one BFS level closer to the destination
// is an equal-cost next hop; the single-path hop is always one of them.
func buildFwd(out [][]*link, ecmp bool) *fwdTable {
	n := len(out)
	in := make([][]*link, n)
	for _, ls := range out {
		for _, l := range ls {
			in[l.toIdx] = append(in[l.toIdx], l)
		}
	}
	for _, ls := range in {
		slices.SortFunc(ls, func(a, b *link) int { return cmp.Compare(a.from, b.from) })
	}
	t := &fwdTable{n: n, egress: make([]*link, n*n)}
	var dist []int32 // ECMP: per-destination hop counts, dist[dst*n+node]
	if ecmp {
		dist = make([]int32, n*n)
	}
	d := make([]int32, n)
	queue := make([]int32, 0, n)
	for dst := range n {
		for i := range d {
			d[i] = -1
		}
		d[dst] = 0
		queue = append(queue[:0], int32(dst))
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for _, l := range in[cur] {
				if d[l.fromIdx] < 0 {
					d[l.fromIdx] = d[cur] + 1
					t.egress[int(l.fromIdx)*n+dst] = l
					queue = append(queue, l.fromIdx)
				}
			}
		}
		if ecmp {
			copy(dist[dst*n:], d)
		}
	}
	if !ecmp {
		return t
	}
	t.ecmpOff = make([]int32, n*n+1)
	for from, ls := range out {
		sorted := slices.Clone(ls)
		slices.SortFunc(sorted, func(a, b *link) int { return cmp.Compare(a.to, b.to) })
		for dst := range n {
			t.ecmpOff[from*n+dst] = int32(len(t.ecmpLinks))
			row := dist[dst*n : dst*n+n]
			if row[from] <= 0 {
				continue // the destination itself, or unreachable
			}
			for _, l := range sorted {
				if row[l.toIdx] == row[from]-1 {
					t.ecmpLinks = append(t.ecmpLinks, l)
				}
			}
		}
	}
	t.ecmpOff[n*n] = int32(len(t.ecmpLinks))
	return t
}
