package main

import (
	"runtime"
	"strings"
	"time"

	"pmnet"
	"pmnet/internal/protocol"
)

// metric is one reported figure: its name and unit.
type metric struct {
	name, unit string
}

// endToEnd are the untraced run's figures, the ones a user re-running the
// figures sees.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"run_s", "s"},
	{"sim_requests_per_s", "1/s"},
	{"events_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are the traced run's figures, one group per layer. The README
// maps each to the end-to-end figure it should move.
var perLayer = func() []metric {
	m := []metric{
		{"setup.arena_s", "s"},
		{"setup.testbed_s", "s"},
		{"setup.prefill_s", "s"},
		{"sim.events", "count"},
		{"sim.events_per_request", "count"},
		{"sim.ns_per_event", "ns"},
		{"pdes.epochs", "count"},
		{"pdes.events_per_epoch", "count"},
		{"pdes.barrier_s", "s"},
		{"pdes.idle_skips", "count"},
		{"pdes.solo_epochs", "count"},
		{"net.delivered", "count"},
		{"net.dropped", "count"},
		{"dp.log.logged", "count"},
		{"dp.log.bypassed", "count"},
		{"dp.cache.hit_ratio", "ratio"},
		{"dp.pm.persists", "count"},
		{"app.calls", "count"},
		{"app.get_ns", "ns"},
		{"app.put_ns", "ns"},
		{"client.resends", "count"},
		{"server.duplicates", "count"},
		{"rt.allocs_per_event", "count"},
		{"rt.alloc_bytes_per_event", "B"},
		{"rt.gc_cycles", "count"},
	}
	for _, b := range cpuBuckets {
		m = append(m, metric{"cpu." + b, "%"})
	}
	return append(m, metric{"trace.overhead", "ratio"})
}()

// timedHandler decorates a handler with host-time accounting of Handle by
// operation. It forwards Unwrap, so server.As still finds the inner
// handler's crash hooks through it.
type timedHandler struct {
	inner        pmnet.Handler
	calls        uint64
	gets, puts   uint64
	getNs, putNs int64
}

func (t *timedHandler) Handle(req pmnet.Request) (pmnet.Response, pmnet.Time) {
	start := time.Now()
	resp, cost := t.inner.Handle(req)
	ns := int64(time.Since(start))
	t.calls++
	switch req.Op {
	case protocol.OpGet:
		t.gets++
		t.getNs += ns
	case protocol.OpPut:
		t.puts++
		t.putNs += ns
	}
	return resp, cost
}

// Unwrap returns the decorated handler.
func (t *timedHandler) Unwrap() pmnet.Handler { return t.inner }

// ledger gathers the per-layer figures of a traced rep across its testbeds.
type ledger struct {
	phases            setupPhases
	run               time.Duration
	events, requests  uint64
	reg               map[string]uint64 // registry counters summed over testbeds
	epochs, idleSkips uint64
	soloEpochs        uint64
	pdesEvents        uint64
	barrierNs         int64
	mallocs, allocB   uint64
	gcCycles          uint32
	app               timedHandler // call counts and times summed over testbeds
	memBefore         runtime.MemStats
}

func newLedger() *ledger { return &ledger{reg: make(map[string]uint64)} }

// wrap decorates a testbed's handler with the app timer. The ledger keeps
// no reference to it: a finished testbed's memory must be free for the next
// one to reuse, as in an untraced rep.
func (l *ledger) wrap(h pmnet.Handler) pmnet.Handler { return &timedHandler{inner: h} }

// beforeRun and afterRun bracket Testbed.Run to count the runtime's
// allocations and collections inside it.
func (l *ledger) beforeRun() { runtime.ReadMemStats(&l.memBefore) }

func (l *ledger) afterRun() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.mallocs += m.Mallocs - l.memBefore.Mallocs
	l.allocB += m.TotalAlloc - l.memBefore.TotalAlloc
	l.gcCycles += m.NumGC - l.memBefore.NumGC
}

// addBed folds one finished testbed into the ledger.
func (l *ledger) addBed(r *bedResult) {
	l.phases.arena += r.phases.arena
	l.phases.testbed += r.phases.testbed
	l.phases.prefill += r.phases.prefill
	l.run += r.run
	l.events += r.bed.EventsRun()
	l.requests += r.attempted
	for name, v := range counters(r.bed) {
		l.reg[name] += v
	}
	if t, ok := r.handler.(*timedHandler); ok {
		l.app.calls += t.calls
		l.app.gets += t.gets
		l.app.puts += t.puts
		l.app.getNs += t.getNs
		l.app.putNs += t.putNs
	}
	if r.bed.Sharded() {
		p := r.bed.RunnerPerf()
		l.epochs += p.Epochs
		l.idleSkips += p.IdleSkips
		l.soloEpochs += p.SoloEpochs
		l.barrierNs += p.BarrierNs
		l.pdesEvents += r.bed.EventsRun()
	}
}

// sumDev sums a per-device counter ("log.logged") over every device of
// every testbed.
func (l *ledger) sumDev(suffix string) uint64 {
	var n uint64
	for name, v := range l.reg {
		if strings.HasPrefix(name, "dev") && strings.HasSuffix(name, "."+suffix) {
			n += v
		}
	}
	return n
}

func (l *ledger) sumPrefix(prefix string) uint64 {
	var n uint64
	for name, v := range l.reg {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// figures returns the rep's per-layer figures, all but the CPU shares and
// the tracing overhead, which the parent computes across reps.
func (l *ledger) figures() map[string]float64 {
	f := map[string]float64{
		"setup.arena_s":     l.phases.arena.Seconds(),
		"setup.testbed_s":   l.phases.testbed.Seconds(),
		"setup.prefill_s":   l.phases.prefill.Seconds(),
		"sim.events":        float64(l.events),
		"pdes.epochs":       float64(l.epochs),
		"pdes.barrier_s":    float64(l.barrierNs) / 1e9,
		"pdes.idle_skips":   float64(l.idleSkips),
		"pdes.solo_epochs":  float64(l.soloEpochs),
		"net.delivered":     float64(l.reg["net.delivered"]),
		"net.dropped":       float64(l.sumPrefix("net.dropped_")),
		"dp.log.logged":     float64(l.sumDev("log.logged")),
		"dp.log.bypassed":   float64(l.sumDev("log.bypassed_collision") + l.sumDev("log.bypassed_full") + l.sumDev("log.bypassed_oversize")),
		"dp.pm.persists":    float64(l.sumDev("pm.persists")),
		"client.resends":    float64(l.reg["client.resends"]),
		"server.duplicates": float64(l.reg["server.duplicates"]),
		"rt.gc_cycles":      float64(l.gcCycles),
	}
	f["sim.events_per_request"] = ratio(float64(l.events), float64(l.requests))
	f["sim.ns_per_event"] = ratio(float64(l.run.Nanoseconds()), float64(l.events))
	f["pdes.events_per_epoch"] = ratio(float64(l.pdesEvents), float64(l.epochs))
	hits, misses := l.sumDev("cache.hits"), l.sumDev("cache.misses")
	f["dp.cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	f["rt.allocs_per_event"] = ratio(float64(l.mallocs), float64(l.events))
	f["rt.alloc_bytes_per_event"] = ratio(float64(l.allocB), float64(l.events))
	f["app.calls"] = float64(l.app.calls)
	f["app.get_ns"] = ratio(float64(l.app.getNs), float64(l.app.gets))
	f["app.put_ns"] = ratio(float64(l.app.putNs), float64(l.app.puts))
	return f
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
