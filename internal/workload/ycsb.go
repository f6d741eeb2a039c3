package workload

import (
	"strconv"

	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// YCSBConfig parameterizes the YCSB-like driver (§VI-A2: "We use a
// YCSB-like client to generate and send read/update requests").
type YCSBConfig struct {
	Keys        int     // keyspace size
	UpdateRatio float64 // fraction of requests that are updates (Fig. 19 sweeps this)
	ValueSize   int     // payload bytes (default 100, §VI-A2)
	Zipfian     bool    // zipfian key popularity (vs uniform)
	Theta       float64 // zipf exponent (default 0.99)
	ScanRatio   float64 // fraction of non-update requests that are range scans (YCSB-E)
	ScanLen     int     // pairs per scan (default 10)
}

// YCSB generates GET/PUT requests over a keyspace. It owns the memory of
// the Ops it returns: the key buffer and the argument vector are reused by
// the next Next (see Generator).
type YCSB struct {
	cfg   YCSBConfig
	rand  *sim.Rand
	zipf  *sim.Zipf
	value []byte
	seq   uint64
	key   []byte    // current key, reformatted in place by each Next
	args  [2][]byte // current argument vector
}

// NewYCSB builds a generator with its own RNG stream.
func NewYCSB(rand *sim.Rand, cfg YCSBConfig) *YCSB {
	if cfg.Keys <= 0 {
		cfg.Keys = 10000
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 100
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.99
	}
	y := &YCSB{cfg: cfg, rand: rand, value: make([]byte, cfg.ValueSize)}
	for i := range y.value {
		y.value[i] = byte('a' + i%26)
	}
	if cfg.Zipfian {
		y.zipf = sim.NewZipf(rand.Fork(), cfg.Keys, cfg.Theta)
	}
	return y
}

// YCSBKey returns the i-th key in the keyspace (for prefill). It produces
// exactly fmt.Sprintf("user%08d", i) for non-negative i.
func YCSBKey(i int) []byte { return appendYCSBKey(make([]byte, 0, 4+20), i) }

// appendYCSBKey appends the i-th key to dst, formatted by hand: key
// generation runs once per request on the hot path, where Sprintf would
// cost several allocations per call.
func appendYCSBKey(dst []byte, i int) []byte {
	var digits [20]byte
	n := strconv.AppendInt(digits[:0], int64(i), 10)
	dst = append(dst, "user"...)
	for pad := 8 - len(n); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, n...)
}

func (y *YCSB) nextKey() []byte {
	var i int
	if y.zipf != nil {
		i = y.zipf.Next()
	} else {
		i = y.rand.Intn(y.cfg.Keys)
	}
	y.key = appendYCSBKey(y.key[:0], i)
	return y.key
}

// Next implements Generator. The returned Op's key and argument vector are
// the generator's own and are overwritten by the next call.
func (y *YCSB) Next() Op {
	y.seq++
	key := y.nextKey()
	if y.rand.Float64() < y.cfg.UpdateRatio {
		y.args = [2][]byte{key, y.value}
		return Op{Req: protocol.Request{Op: protocol.OpPut, Args: y.args[:2]}, Update: true}
	}
	if y.cfg.ScanRatio > 0 && y.rand.Float64() < y.cfg.ScanRatio {
		scanLen := y.cfg.ScanLen
		if scanLen <= 0 {
			scanLen = 10
		}
		return Op{Req: protocol.ScanReq(key, scanLen)}
	}
	y.args = [2][]byte{key}
	return Op{Req: protocol.Request{Op: protocol.OpGet, Args: y.args[:1]}}
}
