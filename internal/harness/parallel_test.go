package harness

import (
	"fmt"
	"strings"
	"testing"

	"pmnet/internal/sim"
)

// TestRunCellsOrdering checks that results land in input order regardless of
// pool size, including pools larger than the cell count.
func TestRunCellsOrdering(t *testing.T) {
	var cells []Cell
	for i := 0; i < 10; i++ {
		i := i
		cells = append(cells, Cell{
			Key:    fmt.Sprintf("c%d", i),
			Custom: func() (any, sim.Time) { return i, 0 },
		})
	}
	for _, workers := range []int{1, 3, 32} {
		out := runCells(cells, workers)
		if len(out) != len(cells) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), len(cells))
		}
		for i, r := range out {
			if r.Key != cells[i].Key || r.V.(int) != i {
				t.Errorf("workers=%d slot %d: got key=%q v=%v", workers, i, r.Key, r.V)
			}
		}
	}
}

// TestRunExperimentsUnknownID checks batch setup rejects bad ids up front.
func TestRunExperimentsUnknownID(t *testing.T) {
	if _, err := RunExperiments([]string{"fig2", "nope"}, Options{Seed: 1}); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

// TestParallelGoldenSmall runs a cheap batch mixing standard and Custom
// cells (fig16 sweep, fig18/fig21 sampled models) at several pool sizes and
// requires byte-identical rendering. TestParallelGoldenAll covers the whole
// suite.
func TestParallelGoldenSmall(t *testing.T) {
	ids := []string{"fig16", "fig18", "fig21"}
	want, err := RunExperiments(ids, Options{Seed: 7, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := RunExperiments(ids, Options{Seed: 7, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Experiments {
			w, g := want.Experiments[i].Text(), got.Experiments[i].Text()
			if w != g {
				t.Errorf("workers=%d %s: output differs from sequential:\n--- want ---\n%s\n--- got ---\n%s",
					workers, ids[i], w, g)
			}
		}
	}
}

// TestParallelGoldenAll is the full golden guarantee: every experiment in the
// suite renders byte-identically at -parallel 8 and -parallel 1.
func TestParallelGoldenAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite runs ~40s; skipped in -short mode")
	}
	seq, err := RunExperiments(ExperimentOrder, Options{Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunExperiments(ExperimentOrder, Options{Seed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if par.Parallel != 8 {
		t.Fatalf("resolved pool size = %d, want 8", par.Parallel)
	}
	if len(seq.Experiments) != len(par.Experiments) {
		t.Fatalf("experiment counts differ: %d vs %d", len(seq.Experiments), len(par.Experiments))
	}
	for i := range seq.Experiments {
		s, p := seq.Experiments[i], par.Experiments[i]
		if s.ID != p.ID {
			t.Fatalf("experiment order differs at %d: %q vs %q", i, s.ID, p.ID)
		}
		if st, pt := s.Text(), p.Text(); st != pt {
			t.Errorf("%s: parallel output differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s",
				s.ID, st, pt)
		}
	}
}

// TestCustomCellsReportEvents checks that the experiments built from Custom
// cells around their own testbeds surface each testbed's event count, so
// the BENCH document rates them (events/sec, allocs/event) like Cfg cells.
func TestCustomCellsReportEvents(t *testing.T) {
	for _, id := range []string{"tail", "recovery", "impairments"} {
		for _, c := range Specs[id].Enumerate(1) {
			if id == "impairments" && !strings.HasSuffix(c.Key, "/recovery") {
				continue
			}
			if r := execCell(c); r.Events == 0 {
				t.Errorf("%s/%s reports 0 events", id, c.Key)
			}
		}
	}
}
