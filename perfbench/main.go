// Command perfbench is the repository's benchmark. It measures how fast
// the simulator runs, in host time, on three closed-loop workloads, and
// checks every run's simulated output.
//
//	perfbench --workload saturation --seed 1 --seconds 10 --trace 0
//
// The parent process repeats reps until --seconds are spent. Each rep is a
// child process (the same binary with -child) that builds the workload's
// testbeds through the public constructors, runs them, checks them and
// prints its raw figures; a process per rep gives each its own peak RSS.
// The parent prints the median of every figure, then one JSON line with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See README.md for the workloads and how to read the figures.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	wl := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", goldenSeed, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced reps")
	child := fs.Bool("child", false, "run one rep in this process and print its raw figures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*wl)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	if *child {
		r, err := childRep(sp, *seed, *traceFlag == 1)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := parent(sp, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// repResult is one rep's raw figures, printed by the child as JSON.
type repResult struct {
	Attempted uint64  `json:"attempted"`
	Completed uint64  `json:"completed"`
	Failed    uint64  `json:"failed"`
	Events    uint64  `json:"events"`
	SetupS    float64 `json:"setup_s"`
	RunS      float64 `json:"run_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`
	// CheckError is empty when the rep's simulated output passed its check.
	CheckError string `json:"check_error,omitempty"`
	// Layers and CPU are set on traced reps only: the ledger's figures and
	// the profile's sample count per CPU bucket.
	Layers map[string]float64 `json:"layers,omitempty"`
	CPU    map[string]int64   `json:"cpu,omitempty"`

	wallS float64 // measured by the parent around the child process
}

// runRep runs every testbed of a workload in order and returns the
// concatenated fingerprint, the rep's figures and, via check errors in the
// figures, whether the output passed. Each testbed is dropped before the
// next is built, as a user running them in sequence would.
func runRep(sp spec, seed uint64, l *ledger) (string, repResult, error) {
	var (
		fp  strings.Builder
		r   repResult
		bad []string
	)
	for i := range sp.beds {
		if i > 0 {
			// Start every testbed from the same heap state: whether the last
			// testbed's arenas are free to reuse must not depend on when the
			// collector last ran. This is outside the timed phases.
			runtime.GC()
		}
		b, err := runBed(&sp.beds[i], seed, l)
		if err != nil {
			return "", r, err
		}
		fp.WriteString(fingerprint(b))
		if err := checkInvariants(b); err != nil {
			bad = append(bad, err.Error())
		}
		r.Attempted += b.attempted
		r.Completed += b.driver.Completed - b.driver.Failed
		r.Failed += b.driver.Failed + b.attempted - b.driver.Completed
		r.Events += b.bed.EventsRun()
		r.SetupS += b.setup.Seconds()
		r.RunS += b.run.Seconds()
		if l != nil {
			l.addBed(b)
		}
	}
	r.CheckError = strings.Join(bad, "; ")
	return fp.String(), r, nil
}

// childRep is one rep in a child process: the run, the output check, and
// on a traced rep the ledger and the CPU profile.
func childRep(sp spec, seed uint64, traced bool) (repResult, error) {
	var (
		l    *ledger
		prof bytes.Buffer
	)
	if traced {
		l = newLedger()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return repResult{}, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	fp, r, err := runRep(sp, seed, l)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return r, err
	}
	var want string
	if seed == goldenSeed {
		if want, err = loadGolden(sp.name); err != nil {
			return r, err
		}
	}
	judge(&r, fp, want)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.AllocMB = float64(ms.TotalAlloc) / 1e6
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return r, fmt.Errorf("getrusage: %w", err)
	}
	r.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	if traced {
		r.Layers = l.figures()
		if r.CPU, err = foldProfile(prof.Bytes()); err != nil {
			return r, err
		}
	}
	return r, nil
}

// parent repeats reps in child processes until the budget is spent (at
// least minReps of each kind), then reduces them to medians. A traced run
// alternates untraced and traced reps, so the tracing overhead is measured
// against reps run under the same conditions.
func parent(sp spec, seed uint64, budget time.Duration, traced bool, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	const minReps = 3
	start := time.Now()
	var plain, tr []repResult
	for i := 0; ; i++ {
		traceRep := traced && i%2 == 1
		r, err := spawn(exe, sp.name, seed, traceRep, stderr)
		if err != nil {
			return nil, err
		}
		if traceRep {
			tr = append(tr, r)
		} else {
			plain = append(plain, r)
		}
		n := len(plain) + len(tr)
		elapsed := time.Since(start)
		enough := len(plain) >= minReps && (!traced || len(tr) >= minReps)
		if enough && elapsed+elapsed/time.Duration(n) > budget {
			break
		}
	}
	all := append(append([]repResult(nil), plain...), tr...)
	res := &result{Correct: true, Metrics: map[string]value{}}
	for _, r := range all {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if r.CheckError != "" {
			res.Correct = false
			fmt.Fprintf(stderr, "perfbench: %s seed %d: output check failed: %s\n", sp.name, seed, r.CheckError)
		}
	}
	e2e := endToEndFigures(plain)
	if traced {
		for name, v := range layerFigures(tr) {
			res.Metrics[name] = v
		}
		res.Metrics["trace.overhead"] = value{
			ratio(median(pick(tr, func(r repResult) float64 { return r.wallS })), e2e["wall_s"].Value), "ratio"}
	} else {
		res.Metrics = e2e
	}
	fmt.Fprintf(stdout, "perfbench %s seed %d: %d reps (%d traced), %d requests, %d failed, correct=%v\n",
		sp.name, seed, len(all), len(tr), res.Attempted, res.Failed, res.Correct)
	report(stdout, "end-to-end", endToEnd, e2e)
	if traced {
		report(stdout, "per-layer", perLayer, res.Metrics)
	}
	return res, nil
}

// spawn runs one rep in a child process and waits for it to exit.
func spawn(exe, workload string, seed uint64, traced bool, stderr io.Writer) (repResult, error) {
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return repResult{}, fmt.Errorf("rep of %s: %w", workload, err)
	}
	var r repResult
	if err := json.Unmarshal(out, &r); err != nil {
		return r, fmt.Errorf("rep of %s: bad output: %w", workload, err)
	}
	r.wallS = wall.Seconds()
	return r, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndFigures reduces untraced reps to the median of each end-to-end
// metric. Rates are taken per rep, then the median.
func endToEndFigures(reps []repResult) map[string]value {
	per := map[string]func(r repResult) float64{
		"wall_s":             func(r repResult) float64 { return r.wallS },
		"setup_s":            func(r repResult) float64 { return r.SetupS },
		"run_s":              func(r repResult) float64 { return r.RunS },
		"sim_requests_per_s": func(r repResult) float64 { return ratio(float64(r.Completed), r.RunS) },
		"events_per_s":       func(r repResult) float64 { return ratio(float64(r.Events), r.RunS) },
		"peak_rss_mb":        func(r repResult) float64 { return r.PeakRSSMB },
		"alloc_mb":           func(r repResult) float64 { return r.AllocMB },
	}
	out := map[string]value{}
	for _, m := range endToEnd {
		out[m.name] = value{median(pick(reps, per[m.name])), m.unit}
	}
	return out
}

// layerFigures reduces traced reps to the median of each ledger figure and
// the CPU shares of all their profile samples together.
func layerFigures(reps []repResult) map[string]value {
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	out := map[string]value{}
	for name := range reps[0].Layers {
		out[name] = value{median(pick(reps, func(r repResult) float64 { return r.Layers[name] })), units[name]}
	}
	cpu := map[string]int64{}
	var total int64
	for _, r := range reps {
		for b, n := range r.CPU {
			cpu[b] += n
			total += n
		}
	}
	for _, b := range cpuBuckets {
		out["cpu."+b] = value{100 * ratio(float64(cpu[b]), float64(total)), "%"}
	}
	return out
}

// report prints one line per metric with its median across reps.
func report(w io.Writer, title string, ms []metric, vals map[string]value) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range ms {
		v, ok := vals[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", m.name, v.Value, m.unit)
	}
}

func pick(reps []repResult, f func(repResult) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
