package main

import (
	"fmt"
	"time"

	"pmnet"
	"pmnet/internal/apps"
	"pmnet/internal/kv"
	"pmnet/internal/rediskv"
	"pmnet/internal/sim"
	"pmnet/internal/stats"
	"pmnet/internal/workload"
)

// bedSpec is one testbed of a workload: a store, a design and the
// closed-loop traffic its clients send.
type bedSpec struct {
	name     string
	store    string // "ideal", a kv engine name, or "redis"
	design   pmnet.Design
	clients  int
	requests int                 // measured requests per client, after the warmup
	cache    int                 // in-network read-cache entries (0 = off)
	shards   int                 // 0 = classic single engine; >0 = PDES with this many shards
	ycsb     workload.YCSBConfig // its Keys are prefilled on a real store
}

// spec is a named workload: its testbeds run one after another in a rep.
type spec struct {
	name string
	beds []bedSpec
}

// Sizes of one rep. A rep is one child process; the parent repeats reps
// until the run's time is spent.
const (
	satClients  = 96
	satRequests = 400
	kvClients   = 8
	kvRequests  = 500
	kvKeys      = 1000
	kvCache     = 4096
	warmup      = 20        // leading requests per client left out of the percentiles
	kvArena     = 128 << 20 // the harness's arena for the five PMDK engines
	redisArena  = 64 << 20  // the harness's arena for the Redis store
)

func saturationBed(shards int) bedSpec {
	return bedSpec{
		name: "ideal/pmnet", store: "ideal", design: pmnet.PMNetSwitch,
		clients: satClients, requests: satRequests, shards: shards,
		ycsb: workload.YCSBConfig{Keys: 2000, UpdateRatio: 1, ValueSize: 1000},
	}
}

func kvBeds() []bedSpec {
	var beds []bedSpec
	for _, store := range append(append([]string(nil), kv.EngineNames...), "redis") {
		for _, d := range []pmnet.Design{pmnet.ClientServer, pmnet.PMNetSwitch} {
			b := bedSpec{
				name: store + "/" + designShort(d), store: store, design: d,
				clients: kvClients, requests: kvRequests,
				ycsb: workload.YCSBConfig{Keys: kvKeys, UpdateRatio: 0.5, ValueSize: 100, Zipfian: true},
			}
			if d == pmnet.PMNetSwitch {
				b.cache = kvCache
			}
			beds = append(beds, b)
		}
	}
	return beds
}

func designShort(d pmnet.Design) string {
	if d == pmnet.ClientServer {
		return "cs"
	}
	return "pmnet"
}

// specs lists the workloads in the order BENCHMARK.json names them.
var specs = []spec{
	{
		name: "saturation",
		beds: []bedSpec{saturationBed(0)},
	},
	{
		name: "kv-ycsb",
		beds: kvBeds(),
	},
	{
		name: "saturation-sharded",
		beds: []bedSpec{saturationBed(2)},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// bedResult is what one testbed produced: its simulated statistics (checked
// against the fingerprint) and the host time its phases took.
type bedResult struct {
	spec       *bedSpec
	bed        *pmnet.Testbed
	handler    pmnet.Handler
	attempted  uint64
	driver     workload.DriverStats
	unfinished int
	hist       *stats.Histogram

	setup  time.Duration // everything before Testbed.Run
	run    time.Duration // inside Testbed.Run
	phases setupPhases   // setup split by the public call that spent it
}

// setupPhases splits setup host time by the public call that spent it.
// arena covers the store: the arena, the engine or Redis store opened on
// it, and the handler over it.
type setupPhases struct {
	arena, testbed, prefill time.Duration
}

// stopwatch times consecutive phases; it reads the clock once per mark.
type stopwatch struct{ last time.Time }

func newStopwatch() stopwatch { return stopwatch{last: time.Now()} }

func (s *stopwatch) lap() time.Duration {
	now := time.Now()
	d := now.Sub(s.last)
	s.last = now
	return d
}

// buildStore makes the server handler for a store through the public
// constructors, returning the prefill function to run before measuring
// (nil for the ideal handler, which stores nothing).
func buildStore(b *bedSpec, ph *setupPhases, sw *stopwatch) (pmnet.Handler, func() error, error) {
	value := make([]byte, b.ycsb.ValueSize)
	switch b.store {
	case "ideal":
		return pmnet.IdealHandler{}, nil, nil
	case "redis":
		arena := kv.NewArena(redisArena)
		store, err := rediskv.Open(arena)
		if err != nil {
			return nil, nil, fmt.Errorf("open redis store: %w", err)
		}
		h := apps.NewRedisHandler(store, arena)
		ph.arena += sw.lap()
		return h, func() error {
			for i := 0; i < b.ycsb.Keys; i++ {
				if err := store.Set(workload.YCSBKey(i), value); err != nil {
					return fmt.Errorf("prefill redis: %w", err)
				}
			}
			return nil
		}, nil
	default:
		factory, ok := kv.Factories[b.store]
		if !ok {
			return nil, nil, fmt.Errorf("unknown store %q", b.store)
		}
		arena := kv.NewArena(kvArena)
		engine, err := factory(arena)
		if err != nil {
			return nil, nil, fmt.Errorf("open %s: %w", b.store, err)
		}
		h := apps.NewKVHandler(engine, arena)
		ph.arena += sw.lap()
		return h, func() error {
			for i := 0; i < b.ycsb.Keys; i++ {
				if err := engine.Put(workload.YCSBKey(i), value); err != nil {
					return fmt.Errorf("prefill %s: %w", b.store, err)
				}
			}
			return nil
		}, nil
	}
}

// clientSlot is one client's closed-loop driver state. Each client records
// into its own slot, so sharded runs need no shared state; slots merge in
// client order after the run.
type clientSlot struct {
	hist *stats.Histogram // latencies after the warmup
	st   workload.DriverStats
	done bool
}

// runBed builds one testbed, runs it to completion and returns its result.
// A traced rep passes its ledger, which times the handler and counts the
// runtime's work inside Testbed.Run; an untraced rep passes nil.
func runBed(b *bedSpec, seed uint64, l *ledger) (*bedResult, error) {
	res := &bedResult{spec: b}
	sw := newStopwatch()
	start := sw.last
	h, prefill, err := buildStore(b, &res.phases, &sw)
	if err != nil {
		return nil, err
	}
	if l != nil {
		h = l.wrap(h)
	}
	res.handler = h
	bed := pmnet.NewTestbed(pmnet.Config{
		Design:       b.design,
		Clients:      b.clients,
		Seed:         seed,
		CacheEntries: b.cache,
		Handler:      h,
		Shards:       b.shards,
	})
	res.bed = bed
	res.phases.testbed += sw.lap()
	if prefill != nil {
		if err := prefill(); err != nil {
			return nil, err
		}
		res.phases.prefill += sw.lap()
	}

	root := sim.NewRand(seed + 77)
	slots := make([]clientSlot, b.clients)
	per := uint64(warmup + b.requests)
	for i := range slots {
		s := &slots[i]
		s.hist = stats.NewHistogram()
		eng := bed.Clients[i].Engine()
		seen := 0
		d := &workload.Driver{
			Sess: bed.Session(i),
			Gen:  workload.NewYCSB(root.Fork(), b.ycsb),
			Record: func(lat sim.Time, _ workload.Op) {
				seen++
				if seen > warmup {
					s.hist.Record(lat)
				}
			},
		}
		d.Run(eng, per, func(st workload.DriverStats) {
			s.st = st
			s.done = true
		})
	}
	res.attempted = per * uint64(b.clients)
	sw.lap()
	res.setup = sw.last.Sub(start)
	if l != nil {
		l.beforeRun()
		sw.lap()
	}
	bed.Run()
	res.run = sw.lap()
	if l != nil {
		l.afterRun()
	}

	res.hist = stats.NewHistogram()
	for i := range slots {
		s := &slots[i]
		if !s.done {
			res.unfinished++
			continue
		}
		res.driver.Completed += s.st.Completed
		res.driver.Updates += s.st.Updates
		res.driver.Bypasses += s.st.Bypasses
		res.driver.Failed += s.st.Failed
		res.hist.Merge(s.hist)
	}
	return res, nil
}
