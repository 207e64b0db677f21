package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/system"
	"vbmo/internal/workload"
)

// TestSweepDeterminism runs the full registry — every machine, a
// uniprocessor and a multiprocessor workload, multiple MP samples —
// on one worker and on four and requires the two matrices to be
// bit-identical. This is the contract that lets the CLIs default to
// one worker per GOMAXPROCS: the worker pool may schedule cells in any
// order, but seeds are derived per cell and observations are folded in
// canonical cell order, so parallelism must be invisible in the
// results.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry sweep is slow; skipped in -short")
	}
	cfg := Config{
		UniInstr:  3000,
		MPInstr:   800,
		MPCores:   2,
		Samples:   2,
		Seed:      42,
		Workloads: []string{"gzip", "radiosity"},
	}
	machines := config.Names()

	cfg.Workers = 1
	serial := mustRun(t, cfg, machines)
	cfg.Workers = 4
	parallel := mustRun(t, cfg, machines)

	for _, mc := range machines {
		for _, w := range cfg.Workloads {
			a, b := serial.Get(mc, w), parallel.Get(mc, w)
			if a == nil || b == nil {
				t.Fatalf("%s/%s: missing point (serial=%v parallel=%v)", mc, w, a != nil, b != nil)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: serial and parallel sweeps diverge:\n serial   IPC=%v raw=%v cons=%v\n parallel IPC=%v raw=%v cons=%v",
					mc, w, a.IPC, a.RAWSquash, a.ConsSquash, b.IPC, b.RAWSquash, b.ConsSquash)
			}
		}
	}
}

// TestCheckpointResumeDeterminism extends the determinism contract to
// crash recovery: a matrix resumed from a partially-written checkpoint
// journal (half the cells present, plus a torn trailing line as a kill
// mid-fsync would leave) must be bit-identical to an uninterrupted run.
func TestCheckpointResumeDeterminism(t *testing.T) {
	cfg := Config{
		UniInstr:  2000,
		MPInstr:   600,
		MPCores:   2,
		Samples:   2,
		Seed:      42,
		Workloads: []string{"gzip", "radiosity"},
	}
	machines := []string{"baseline", "replay-all"}

	clean := mustRun(t, cfg, machines)

	// Build a complete journal, then tear it: keep the header and half
	// the cell records, append a truncated line.
	journal := filepath.Join(t.TempDir(), "matrix.jsonl")
	cfg.Checkpoint = journal
	full := mustRun(t, cfg, machines)
	if len(full.Failed) != 0 {
		t.Fatalf("journaled run failed cells: %v", full.Failed)
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(raw)
	if len(lines) < 4 {
		t.Fatalf("journal too small to tear (%d lines)", len(lines))
	}
	keep := lines[:1+(len(lines)-1)/2]
	torn := append([]byte{}, joinLines(keep)...)
	torn = append(torn, []byte(`{"key":"torn","result":{"ip`)...)
	if err := os.WriteFile(journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := mustRun(t, cfg, machines)
	if resumed.Resumed == 0 {
		t.Fatal("nothing resumed from the torn journal")
	}
	if len(resumed.Failed) != 0 {
		t.Fatalf("resumed run failed cells: %v", resumed.Failed)
	}
	for _, mc := range machines {
		for _, w := range cfg.Workloads {
			a, b := clean.Get(mc, w), resumed.Get(mc, w)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: resumed matrix diverges from uninterrupted run:\n clean   %+v\n resumed %+v",
					mc, w, a, b)
			}
		}
	}
}

// TestFigure8SharesMatrixJournal runs the §5.1 matrix and then Figure
// 8's machine set on one checkpoint journal, as `experiments -resume J
// -experiment all` does. Cells are keyed by content, so the second run
// must resume exactly the no-recent-snoop cells the matrix recorded and
// run the constrained baselines, and its points must equal a fresh
// run's.
func TestFigure8SharesMatrixJournal(t *testing.T) {
	cfg := Config{
		UniInstr:  2000,
		MPInstr:   600,
		MPCores:   2,
		Samples:   2,
		Seed:      42,
		Workloads: []string{"gzip", "radiosity"},
	}
	fig8 := []string{"no-recent-snoop", "baseline-lq32", "baseline-lq16"}
	fresh := mustRun(t, cfg, fig8)

	cfg.Checkpoint = filepath.Join(t.TempDir(), "all.jsonl")
	mustRun(t, cfg, MachineNames)
	shared := mustRun(t, cfg, fig8)
	if want := len(cfg.Cells(fig8[:1])); shared.Resumed != want || len(shared.Failed) != 0 {
		t.Fatalf("resumed %d cells with %d failed, want the matrix's %d no-recent-snoop cells",
			shared.Resumed, len(shared.Failed), want)
	}
	for _, mc := range fig8 {
		for _, w := range cfg.Workloads {
			if a, b := fresh.Get(mc, w), shared.Get(mc, w); !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: shared-journal point differs from a fresh run's:\n fresh  %+v\n shared %+v", mc, w, a, b)
			}
		}
	}
}

func splitLines(b []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, c := range b {
		if c == '\n' {
			out = append(out, b[start:i+1])
			start = i + 1
		}
	}
	return out
}

func joinLines(lines [][]byte) []byte {
	var out []byte
	for _, l := range lines {
		out = append(out, l...)
	}
	return out
}

// TestRunRepeatable runs every registered machine twice with the same
// seed and requires identical end-of-run results: same IPC, same
// pipeline counter block, same named counters. This pins down the
// simulator's own determinism, independent of the sweep layer.
func TestRunRepeatable(t *testing.T) {
	work, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip workload missing")
	}
	for _, name := range config.Names() {
		mc, ok := config.ByName(name)
		if !ok {
			t.Fatalf("machine %q not in registry", name)
		}
		opt := system.Options{Cores: 1, Seed: 7, DMAInterval: 4000, DMABurst: 2}
		run := func() system.Result {
			s := system.New(mc, work, opt)
			return s.Run(4000, opt)
		}
		a, b := run(), run()
		if a.IPC != b.IPC {
			t.Errorf("%s: IPC differs across identical runs: %v vs %v", name, a.IPC, b.IPC)
		}
		if !reflect.DeepEqual(a.Pipe, b.Pipe) {
			t.Errorf("%s: pipeline stats differ across identical runs", name)
		}
		an, bn := a.Counters.Names(), b.Counters.Names()
		if !reflect.DeepEqual(an, bn) {
			t.Errorf("%s: counter name sets differ", name)
			continue
		}
		for _, c := range an {
			if av, bv := a.Counters.Get(c), b.Counters.Get(c); av != bv {
				t.Errorf("%s: counter %s differs: %d vs %d", name, c, av, bv)
			}
		}
	}
}
