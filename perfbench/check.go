package main

import (
	"bytes"
	"embed"
	"errors"
	"fmt"
	"strings"

	"pmnet"
	"pmnet/internal/apps"
	"pmnet/internal/server"
	"pmnet/internal/sim"
	"pmnet/internal/workload"
)

// goldenSeed is the seed whose simulated statistics are pinned byte for
// byte. Every other seed is checked against structural invariants.
const goldenSeed = 1

//go:embed testdata/*.golden
var goldens embed.FS

// fingerprint renders a testbed's simulated statistics as text: the event
// count, the request outcome counts, the virtual p50/p99/p999 latencies
// and the full counter registry. Host time appears nowhere in it.
func fingerprint(r *bedResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bed %s\n", r.spec.name)
	fmt.Fprintf(&b, "events %d\n", r.bed.EventsRun())
	fmt.Fprintf(&b, "completed %d\n", r.driver.Completed)
	fmt.Fprintf(&b, "failed %d\n", r.driver.Failed)
	fmt.Fprintf(&b, "unfinished %d\n", r.unfinished)
	fmt.Fprintf(&b, "p50_ns %d\n", int64(r.hist.Percentile(50)))
	fmt.Fprintf(&b, "p99_ns %d\n", int64(r.hist.Percentile(99)))
	fmt.Fprintf(&b, "p999_ns %d\n", int64(r.hist.Percentile(99.9)))
	for _, c := range r.bed.Counters().Snapshot() {
		fmt.Fprintf(&b, "reg %s %d\n", c.Name, c.Value)
	}
	return b.String()
}

// loadGolden returns the pinned fingerprint of a workload.
func loadGolden(workload string) (string, error) {
	b, err := goldens.ReadFile("testdata/" + workload + ".golden")
	if err != nil {
		return "", fmt.Errorf("read fingerprint of %s: %w", workload, err)
	}
	return string(b), nil
}

// judge finishes a rep's output check. At the golden seed want is the
// pinned fingerprint, which fp must equal; on other seeds want is empty and
// only the invariants count. A rep whose check failed counts every request
// failed, since none of its outputs can be trusted.
func judge(r *repResult, fp, want string) {
	if want != "" {
		if err := compareFingerprint(fp, want); err != nil {
			r.CheckError = strings.TrimPrefix(r.CheckError+"; "+err.Error(), "; ")
		}
	}
	if r.CheckError != "" {
		r.Failed = r.Attempted
	}
}

// compareFingerprint reports the first line where got departs from want.
func compareFingerprint(got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Errorf("fingerprint mismatch at line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return errors.New("fingerprint mismatch")
}

// checkInvariants checks what must hold on every seed: every client
// finished every request without failure, the counters agree with the
// drivers, the percentiles are ordered, and a real store holds exactly the
// keyspace with only values that were written.
func checkInvariants(r *bedResult) error {
	b := r.spec
	if r.unfinished != 0 {
		return fmt.Errorf("%s: %d clients never finished", b.name, r.unfinished)
	}
	if r.driver.Failed != 0 || r.driver.Completed != r.attempted {
		return fmt.Errorf("%s: %d of %d requests completed, %d failed",
			b.name, r.driver.Completed, r.attempted, r.driver.Failed)
	}
	reg := counters(r.bed)
	if reg["client.completed"] != r.attempted || reg["client.failed"] != 0 {
		return fmt.Errorf("%s: registry says %d completed, %d failed; drivers say %d",
			b.name, reg["client.completed"], reg["client.failed"], r.attempted)
	}
	if reg["engine.events"] == 0 || reg["engine.events"] != r.bed.EventsRun() {
		return fmt.Errorf("%s: engine.events %d, EventsRun %d", b.name, reg["engine.events"], r.bed.EventsRun())
	}
	if reg["client.updates_sent"] != r.driver.Updates {
		return fmt.Errorf("%s: %d updates sent, drivers issued %d", b.name, reg["client.updates_sent"], r.driver.Updates)
	}
	if reg["server.updates_applied"] != r.driver.Updates {
		return fmt.Errorf("%s: server applied %d of %d updates", b.name, reg["server.updates_applied"], r.driver.Updates)
	}
	if n := r.hist.Count(); n != uint64(b.clients*b.requests) {
		return fmt.Errorf("%s: %d latencies recorded, want %d", b.name, n, b.clients*b.requests)
	}
	p50, p99, p999 := r.hist.Percentile(50), r.hist.Percentile(99), r.hist.Percentile(99.9)
	if !(p50 > 0 && p50 <= p99 && p99 <= p999) {
		return fmt.Errorf("%s: percentiles out of order: p50 %v p99 %v p999 %v", b.name, p50, p99, p999)
	}
	return checkStore(r)
}

// checkStore reads every key of a real store back through its handler and
// checks the engine's own structural invariants.
func checkStore(r *bedResult) error {
	b := r.spec
	if b.store == "ideal" {
		return nil
	}
	h := r.handler
	if kvh, ok := server.As[*apps.KVHandler](h); ok {
		if err := kvh.Engine.Verify(); err != nil {
			return fmt.Errorf("%s: engine invariant: %w", b.name, err)
		}
		if n := kvh.Engine.Len(); n != b.ycsb.Keys {
			return fmt.Errorf("%s: engine holds %d keys, want %d", b.name, n, b.ycsb.Keys)
		}
	}
	if inner, ok := h.(interface{ Unwrap() pmnet.Handler }); ok {
		h = inner.Unwrap() // read back without counting in the app timer
	}
	prefilled := make([]byte, b.ycsb.ValueSize)
	written := ycsbValue(b.ycsb)
	for i := 0; i < b.ycsb.Keys; i++ {
		key := workload.YCSBKey(i)
		resp, _ := h.Handle(pmnet.GetReq(key))
		if resp.Status != pmnet.StatusOK || len(resp.Args) < 2 {
			return fmt.Errorf("%s: read back %s: status %v", b.name, key, resp.Status)
		}
		if v := resp.Args[1]; !bytes.Equal(v, prefilled) && !bytes.Equal(v, written) {
			return fmt.Errorf("%s: read back %s: value %q was never written", b.name, key, v)
		}
	}
	return nil
}

// ycsbValue is the value the YCSB generator writes, taken from the first
// update it generates.
func ycsbValue(cfg workload.YCSBConfig) []byte {
	cfg.UpdateRatio = 1
	return workload.NewYCSB(sim.NewRand(0), cfg).Next().Req.Args[1]
}

// counters snapshots a testbed's registry into a map.
func counters(bed *pmnet.Testbed) map[string]uint64 {
	m := make(map[string]uint64)
	for _, c := range bed.Counters().Snapshot() {
		m[c.Name] = c.Value
	}
	return m
}
