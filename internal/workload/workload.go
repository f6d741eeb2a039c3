// Package workload implements the request generators of the paper's
// evaluation (§VI-A2): a YCSB-like key-value driver with configurable
// update ratio and zipfian popularity, the Twitter (Retwis) workload, and a
// TPCC subset whose transactions guard stock updates with server-side locks
// (§III-C) — plus the closed-loop driver that plays any generator against a
// client session with synchronous-RPC semantics.
package workload

import (
	"pmnet/internal/client"
	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// Op is one request to issue.
type Op struct {
	Req protocol.Request
	// Update selects update-req framing (persistent logging) vs bypass.
	Update bool
	// Retry requests re-issue on StatusLocked (lock acquisition).
	Retry bool
}

// Generator produces the request stream for one client. An Op, including
// the memory its Req.Args point at, is valid until the next call to Next: a
// generator may reuse its key and argument buffers. The closed-loop Driver
// fits this contract, since it encodes each request, waits for it to
// complete and records it before it asks for the next one.
type Generator interface {
	Next() Op
}

// GeneratorFunc adapts a function to Generator.
type GeneratorFunc func() Op

// Next implements Generator.
func (f GeneratorFunc) Next() Op { return f() }

// DriverStats reports a finished driver run.
type DriverStats struct {
	Completed   uint64
	Updates     uint64
	Bypasses    uint64
	LockOps     uint64
	LockRetries uint64
	Failed      uint64
}

// Driver plays a generator against a session in a closed loop: one
// outstanding request, the next issued from the completion callback — the
// synchronous RPC model of §II-A.
type Driver struct {
	Sess *client.Session
	Gen  Generator
	// Record is invoked for every completed request with its latency.
	Record func(lat sim.Time, op Op)
	// RetryDelay backs off lock-acquire retries (0 = 5 µs).
	RetryDelay sim.Time
	// MaxLockRetries caps retries per lock acquisition before giving up
	// (0 = 2000); the safety valve against a peer that died holding a lock.
	MaxLockRetries int

	eng       *sim.Engine
	stats     DriverStats
	lockDepth int

	// The one request in flight. Its completion callback and lock-retry
	// timer callback are bound once in Run, so a request allocates nothing
	// on the driver's side.
	op       Op
	retries  int
	next     func()
	handleFn func(client.Result)
	retryFn  func()
}

// Run issues n requests (completions counted; lock retries re-issue the
// same logical request) and invokes done when finished. A driver whose
// budget expires inside a critical section keeps going until the lock is
// released — a client never disconnects holding a server-side lock.
func (d *Driver) Run(eng *sim.Engine, n uint64, done func(DriverStats)) {
	d.eng = eng
	if d.RetryDelay <= 0 {
		d.RetryDelay = 5 * sim.Microsecond
	}
	if d.MaxLockRetries <= 0 {
		d.MaxLockRetries = 2000
	}
	d.handleFn = d.handle
	d.retryFn = d.send
	d.next = func() {
		if d.stats.Completed >= n && d.lockDepth == 0 {
			if done != nil {
				done(d.stats)
			}
			return
		}
		d.op = d.Gen.Next()
		d.retries = 0
		d.send()
	}
	d.next()
}

// send issues the in-flight op (again, after a lock conflict).
func (d *Driver) send() {
	op := &d.op
	switch {
	case op.Req.Op == protocol.OpLockAcquire || op.Req.Op == protocol.OpLockRelease:
		d.stats.LockOps++
		d.stats.Bypasses++
		d.Sess.Bypass(op.Req, d.handleFn)
	case op.Update:
		d.stats.Updates++
		d.Sess.SendUpdate(op.Req, d.handleFn)
	default:
		d.stats.Bypasses++
		d.Sess.Bypass(op.Req, d.handleFn)
	}
}

// handle completes the in-flight op: retry a lock conflict, or record it
// and issue the next one.
func (d *Driver) handle(r client.Result) {
	if r.Err != nil {
		d.stats.Failed++
		d.stats.Completed++
		d.next()
		return
	}
	if d.op.Retry && r.Status == protocol.StatusLocked {
		if d.retries >= d.MaxLockRetries {
			d.stats.Failed++
			d.stats.Completed++
			d.next()
			return
		}
		d.stats.LockRetries++
		d.retries++
		d.eng.After(d.RetryDelay, d.retryFn)
		return
	}
	switch d.op.Req.Op {
	case protocol.OpLockAcquire:
		if r.Status == protocol.StatusOK {
			d.lockDepth++
		}
	case protocol.OpLockRelease:
		if d.lockDepth > 0 {
			d.lockDepth--
		}
	}
	if d.Record != nil {
		d.Record(r.Latency, d.op)
	}
	d.stats.Completed++
	d.next()
}

// Stats returns the driver counters so far.
func (d *Driver) Stats() DriverStats { return d.stats }
