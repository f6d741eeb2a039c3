package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"

	"pmnet"
	"pmnet/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/<workload>.golden from current output")

// Every workload's run at the golden seed passes its invariants and matches
// its pinned fingerprint. With -update it rewrites the fingerprints instead,
// refusing to pin a run whose invariants failed.
func TestGoldens(t *testing.T) {
	for _, sp := range specs {
		fp, r, err := runRep(sp, goldenSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.CheckError != "" {
			t.Errorf("%s: %s", sp.name, r.CheckError)
			continue
		}
		path := filepath.Join("testdata", sp.name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(fp), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := loadGolden(sp.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareFingerprint(fp, want); err != nil {
			t.Errorf("%s: %v (run `go test -run TestGoldens -update` if the model moved on purpose)", sp.name, err)
		}
	}
}

// The pinned fingerprint passes a child rep, and a golden that differs in
// one counter makes the rep report failure and count every request failed.
func TestPerturbedFingerprintRejected(t *testing.T) {
	sp, _ := specByName("saturation")
	r, err := childRep(sp, goldenSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.CheckError != "" || r.Failed != 0 {
		t.Fatalf("pinned fingerprint rejected: %s (failed %d)", r.CheckError, r.Failed)
	}

	fp, r, err := runRep(sp, goldenSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := regexp.MustCompile(`(?m)^reg client\.completed (\d+)$`).ReplaceAllString(fp, "reg client.completed 1$1")
	if perturbed == fp {
		t.Fatal("fingerprint has no client.completed counter to perturb")
	}
	judge(&r, fp, perturbed)
	if !strings.Contains(r.CheckError, "fingerprint mismatch") || r.Failed != r.Attempted {
		t.Fatalf("perturbed fingerprint accepted: check %q, failed %d of %d", r.CheckError, r.Failed, r.Attempted)
	}
}

func TestCompareFingerprintNamesLine(t *testing.T) {
	if err := compareFingerprint("a\nb\n", "a\nb\n"); err != nil {
		t.Fatal(err)
	}
	err := compareFingerprint("a\nb\n", "a\nc\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("got %v, want a mismatch at line 2", err)
	}
	if compareFingerprint("a\n", "a\nextra\n") == nil {
		t.Fatal("truncated fingerprint accepted")
	}
}

// A client that never finishes fails the invariant check on any seed.
func TestInvariantsCatchUnfinishedClient(t *testing.T) {
	sp, _ := specByName("saturation")
	b, err := runBed(&sp.beds[0], 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(b); err != nil {
		t.Fatalf("healthy run rejected: %v", err)
	}
	b.unfinished = 1
	if err := checkInvariants(b); err == nil || !strings.Contains(err.Error(), "never finished") {
		t.Fatalf("unfinished client accepted: %v", err)
	}
}

// crashCounter is a handler with crash hooks that counts their calls.
type crashCounter struct {
	pmnet.IdealHandler
	crashes, restarts int
}

func (c *crashCounter) Crash()   { c.crashes++ }
func (c *crashCounter) Restart() { c.restarts++ }

// The app timer must not hide the inner handler's crash hooks from the
// testbed, and must count the calls it forwards.
func TestTimedHandlerKeepsCrashHooks(t *testing.T) {
	inner := &crashCounter{}
	h := newLedger().wrap(inner)
	if got, ok := server.As[pmnet.CrashFaultHandler](h); !ok || got != inner {
		t.Fatalf("server.As through the app timer = %v, %v", got, ok)
	}
	tb := pmnet.NewTestbed(pmnet.Config{Design: pmnet.PMNetSwitch, Handler: h, Seed: 3})
	done := false
	tb.Session(0).SendUpdate(pmnet.PutReq([]byte("k"), []byte("v")), func(r pmnet.Result) { done = r.Err == nil })
	tb.Run()
	tb.CrashServer()
	tb.RecoverServer()
	tb.Run()
	if !done {
		t.Fatal("update did not complete")
	}
	if inner.crashes != 1 || inner.restarts != 1 {
		t.Fatalf("crash hooks fired %d/%d times through the app timer, want 1/1", inner.crashes, inner.restarts)
	}
	if th := h.(*timedHandler); th.calls == 0 || th.puts == 0 {
		t.Fatalf("app timer counted %d calls, %d puts", th.calls, th.puts)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pmnet/internal/sim/pdes.(*Runner).Run":                "pdes",
		"pmnet/internal/sim.(*Engine).popNext":                 "sim",
		"pmnet/internal/netsim.(*Network).Transmit.func1":      "netsim",
		"pmnet/internal/kv.(*BTree).Put":                       "kv",
		"pmnet/internal/unwrap.As[go.shape.*pmnet/internal/x]": "other",
		"pmnet.(*Testbed).Run":                                 "pmnet",
		"pmnet.NewTestbed":                                     "pmnet",
		"main.runBed":                                          "bench",
		"runtime.mallocgc":                                     "",
		"encoding/binary.Uvarint":                              "",
		"hash/crc32.ieeeCLMUL":                                 "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// Every package under internal/ maps to a bucket named after it, or to
// "other"; each layer the ledger reports has its own bucket.
func TestModuleOfCoversInternal(t *testing.T) {
	layers := []string{"sim", "pdes", "netsim", "dataplane", "protocol", "client",
		"server", "apps", "kv", "rediskv", "pmobj", "pmem"}
	own := map[string]bool{}
	err := filepath.WalkDir("../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || strings.Contains(path, "testdata") || path == "../internal" {
			return err
		}
		rel, _ := filepath.Rel("..", path)
		m := moduleOf("pmnet/" + filepath.ToSlash(rel) + ".F")
		if m != d.Name() && m != "other" {
			t.Errorf("%s maps to %q", rel, m)
		}
		own[m] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layers {
		if !own[l] {
			t.Errorf("layer %s has no bucket of its own", l)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "pmnet/internal/pmem.NewDevice"}, "rt.memclr"},
		{[]string{"runtime.memmove", "pmnet/internal/pmem.(*Device).Persist"}, "rt.memmove"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "rt.gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "pmnet/internal/sim.(*Engine).At"}, "rt.gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "pmnet/internal/client.(*Session).send"}, "rt.malloc"},
		{[]string{"runtime.mapaccess2", "pmnet/internal/server.(*Server).deliver"}, "server"},
		{[]string{"encoding/binary.Uvarint", "pmnet/internal/protocol.DecodeHeader"}, "protocol"},
		{[]string{"runtime.futex", "runtime.schedule"}, "rt.other"},
		{[]string{"internal/runtime/atomic.(*Int32).Add", "runtime.wakep", "runtime.gosched_m"}, "rt.other"},
		{[]string{"syscall.Syscall"}, "other"},
		{nil, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// The fold of a real profile charges every sample to exactly one bucket,
// so the shares sum to 100%.
func TestCPUFoldSumsTo100(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sp, _ := specByName("saturation")
	for i := 0; i < 2; i++ {
		if _, err := runBed(&sp.beds[0], uint64(7+i), nil); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var samples int64
	for _, s := range p.samples {
		samples += s.count
	}
	if samples < 10 {
		t.Skipf("only %d CPU samples", samples)
	}
	folded, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for b, n := range folded {
		if !contains(cpuBuckets, b) {
			t.Errorf("sample charged to unknown bucket %q", b)
		}
		sum += n
	}
	if sum != samples {
		t.Fatalf("fold charged %d of %d samples", sum, samples)
	}
	if folded["sim"] == 0 || folded["netsim"] == 0 {
		t.Errorf("saturation profile charges nothing to sim or netsim: %v", folded)
	}
	figs := layerFigures([]repResult{{Layers: map[string]float64{}, CPU: folded}})
	var pct float64
	for _, b := range cpuBuckets {
		pct += figs["cpu."+b].Value
	}
	if math.Abs(pct-100) > 1e-9 {
		t.Fatalf("CPU shares sum to %v%%", pct)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Metric names use only [A-Za-z0-9_.-]; BENCHMARK.json lists exactly the
// workloads, metric names and units the benchmark prints; a traced rep
// reports every per-layer metric.
func TestMetricNamesAndBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			t.Errorf("bad or repeated metric name %q", m.name)
		}
		seen[m.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)

	sp, _ := specByName("saturation")
	r, err := childRep(sp, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	figs := layerFigures([]repResult{r})
	figs["trace.overhead"] = value{}
	for _, m := range perLayer {
		if _, ok := figs[m.name]; !ok {
			t.Errorf("traced rep lacks %s", m.name)
		}
	}
	if len(figs) != len(perLayer) {
		t.Errorf("traced rep reports %d figures, BENCHMARK.json lists %d", len(figs), len(perLayer))
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
