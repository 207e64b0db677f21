// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Figure 5 (performance of the replay configurations
// relative to the baseline), Figure 6 (extra data-cache bandwidth),
// Figure 7 (reorder-buffer occupancy), Figure 8 (size-constrained load
// queues), the §5.1 squash statistics, the §5.3 power model, and the
// Table 1/2 hardware models. See DESIGN.md §4 for the experiment index.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"vbmo/internal/config"
	"vbmo/internal/farm/cachekey"
	"vbmo/internal/par"
	"vbmo/internal/stats"
	"vbmo/internal/system"
	"vbmo/internal/workload"
)

// Config scopes an experiment run. The defaults are sized so the whole
// suite finishes in minutes; the paper's shapes are stable at these
// budgets (EXPERIMENTS.md records the reference outputs).
type Config struct {
	// UniInstr is committed instructions per uniprocessor run.
	UniInstr uint64
	// MPInstr is committed instructions per core in MP runs.
	MPInstr uint64
	// MPCores is the multiprocessor width (paper: 16).
	MPCores int
	// Samples is the number of differently-seeded samples per MP data
	// point (Alameldeen–Wood methodology).
	Samples int
	// Seed is the base random seed.
	Seed uint64
	// Workloads restricts the run to the named workloads (nil = all).
	Workloads []string
	// Workers bounds the worker pool: 1 runs serially, 0 runs one
	// worker per runtime.GOMAXPROCS (see par.Workers).
	Workers int
	// LitmusRuns is the perturbed executions per litmus (test, config)
	// cell in the litmus experiment.
	LitmusRuns int
	// Checkpoint, when non-empty, journals completed cells to this JSONL
	// file as the matrix runs (par.Sweep), keyed like the farm's matrix
	// cells (cachekey.Sim); re-running with the same path replays every
	// cell the journal holds instead of re-simulating it. Folds happen
	// in canonical order from stored results, so a resumed matrix is
	// bit-identical to an uninterrupted one.
	Checkpoint string
	// Retries re-attempts a failed (panicked) cell this many times.
	Retries int
	// CellTimeout, when positive, abandons a cell at this wall-clock
	// deadline (reported in Matrix.Failed). Wall-clock deadlines are
	// nondeterministic; leave 0 for reproducible sweeps.
	CellTimeout time.Duration
}

// DefaultConfig returns the standard experiment scope.
func DefaultConfig() Config {
	return Config{
		UniInstr:   60000,
		MPInstr:    6000,
		MPCores:    16,
		Samples:    2,
		Seed:       42,
		Workers:    1,
		LitmusRuns: 300,
	}
}

// QuickConfig returns a reduced scope for smoke runs and benchmarks.
func QuickConfig() Config {
	return Config{
		UniInstr:   15000,
		MPInstr:    2500,
		MPCores:    4,
		Samples:    1,
		LitmusRuns: 40,
		Seed:       42,
		Workers:    1,
	}
}

// MachineNames lists the five §5.1 configurations in presentation
// order.
var MachineNames = []string{
	"baseline", "replay-all", "no-reorder", "no-recent-miss", "no-recent-snoop",
}

// machineFor builds the named machine configuration via the shared
// registry, so experiments and the CLIs agree on names.
func machineFor(name string) config.Machine {
	m, ok := config.ByName(name)
	if !ok {
		panic("experiments: unknown machine " + name)
	}
	return m
}

// Point is one (machine, workload) measurement, averaged over samples.
type Point struct {
	Machine  string
	Workload string
	Multi    bool
	IPC      stats.Sample
	// Bandwidth terms (per-sample sums, averaged).
	L1DTotal     stats.Sample
	ReplayAll    stats.Sample // replay accesses (total)
	ReplayNUS    stats.Sample // replay accesses required by RAW filter
	ROBOccupancy stats.Sample
	// Squash terms.
	RAWSquash  stats.Sample // baseline LQ RAW squashes / replay RAW squashes
	ConsSquash stats.Sample // invalidation squashes / replay consistency squashes
	Committed  stats.Sample
	LQSearches stats.Sample
	Replays    stats.Sample
}

// Matrix holds every data point of the shared §5.1 run set, keyed by
// machine then workload.
type Matrix struct {
	Cfg    Config
	Points map[string]map[string]*Point
	// Failed lists cells that did not complete (panicked past their
	// retries, or timed out). Their observations are absent from Points;
	// callers must treat a non-empty list as a degraded result.
	Failed []par.Failure
	// Resumed is how many cells were replayed from the checkpoint
	// journal instead of simulated.
	Resumed int
}

// Get returns the point for (machine, workload).
func (m *Matrix) Get(machine, work string) *Point {
	if mm := m.Points[machine]; mm != nil {
		return mm[work]
	}
	return nil
}

// workloadSet returns the selected workloads. With no explicit
// selection, bench-only workloads are excluded so the figure sweeps
// match the paper's workload set; naming one explicitly still works.
func (c Config) workloadSet() []workload.Params {
	all := workload.Catalog()
	if len(c.Workloads) == 0 {
		var out []workload.Params
		for _, w := range all {
			if !w.BenchOnly {
				out = append(out, w)
			}
		}
		return out
	}
	want := map[string]bool{}
	for _, w := range c.Workloads {
		want[w] = true
	}
	var out []workload.Params
	for _, w := range all {
		if want[w.Name] {
			out = append(out, w)
		}
	}
	return out
}

// Cell is one (machine, workload, sample) unit of the §5.1 matrix:
// the inputs MeasureCell takes.
type Cell struct {
	Machine  string
	Workload workload.Params
	Cores    int
	Instr    uint64
	Seed     uint64
}

// Cells returns the matrix's canonical cell list over machines:
// machine-major, workloads in catalog order, a uniprocessor workload
// once on one core at Seed, a multiprocessor workload Samples times on
// MPCores at Seed + sample*101. Run folds observations in this order,
// and the farm expands matrix jobs through it.
func (c Config) Cells(machines []string) []Cell {
	var cells []Cell
	for _, name := range machines {
		for _, w := range c.workloadSet() {
			if !w.Multi {
				cells = append(cells, Cell{name, w, 1, c.UniInstr, c.Seed})
				continue
			}
			for s := 0; s < c.Samples; s++ {
				cells = append(cells, Cell{name, w, c.MPCores, c.MPInstr, c.Seed + uint64(s)*101})
			}
		}
	}
	return cells
}

// CellObs is the raw measurement of one (machine, workload, sample)
// cell. Cells run independently — possibly on different workers, in
// any order — and are folded into Points afterwards in canonical cell
// order, so the Sample observation sequences (and therefore the whole
// Matrix) are bit-identical between serial and parallel execution.
// Fields are exported with JSON tags because the checkpoint journal
// (and the farm service's result cache) round-trip cells through
// encoding/json; Go's float64 encoding is exact, so a journaled
// observation folds identically to a fresh one.
type CellObs struct {
	IPC        float64 `json:"ipc"`
	L1DTotal   float64 `json:"l1d_total"`
	ReplayAll  float64 `json:"replay_all"`
	ReplayNUS  float64 `json:"replay_nus"`
	ROBOcc     float64 `json:"rob_occ"`
	Committed  float64 `json:"committed"`
	Replays    float64 `json:"replays"`
	LQSearches float64 `json:"lq_searches"`
	RAWSquash  float64 `json:"raw_squash"`
	ConsSquash float64 `json:"cons_squash"`
}

// MeasureCell executes one sample — warm to steady state, then measure
// a fixed committed-instruction window — and returns its observations.
// It is exported as the farm service's unit of execution for sweep
// jobs: the same (machine, workload, cores, instr, seed) cell produces
// the same observations whether it runs here, in a farm worker, or is
// replayed from a journal.
func MeasureCell(mc config.Machine, work workload.Params, cores int, instr uint64, seed uint64) CellObs {
	opt := system.Options{
		Cores: cores, Seed: seed,
		DMAInterval: 4000, DMABurst: 2,
	}
	s := system.New(mc, work, opt)
	// Warm the caches and predictors, then measure from steady state;
	// cold compulsory misses otherwise dominate short runs.
	s.Run(instr/2, opt)
	s.ResetStats()
	res := s.Run(instr, opt)
	o := CellObs{
		IPC:        res.IPC,
		L1DTotal:   float64(res.Pipe.TotalL1DAccesses()),
		ReplayAll:  float64(res.Pipe.ReplayAccesses),
		ReplayNUS:  float64(res.Counters.Get("replay.replays_nus")),
		ROBOcc:     res.Pipe.AvgROBOccupancy(), // already a per-core average
		Committed:  float64(res.Pipe.Committed),
		Replays:    float64(res.Pipe.ReplayAccesses),
		LQSearches: float64(res.Counters.Get("lq.searches")),
	}
	if mc.Scheme == config.ValueReplay {
		o.RAWSquash = float64(res.Pipe.SquashesReplayRAW)
		o.ConsSquash = float64(res.Pipe.SquashesReplayCons)
	} else {
		o.RAWSquash = float64(res.Pipe.SquashesRAW)
		o.ConsSquash = float64(res.Pipe.SquashesInval)
	}
	return o
}

// foldCell appends one cell's observations to its point.
func foldCell(pt *Point, o CellObs) {
	pt.IPC.Observe(o.IPC)
	pt.L1DTotal.Observe(o.L1DTotal)
	pt.ReplayAll.Observe(o.ReplayAll)
	pt.ReplayNUS.Observe(o.ReplayNUS)
	pt.ROBOccupancy.Observe(o.ROBOcc)
	pt.Committed.Observe(o.Committed)
	pt.Replays.Observe(o.Replays)
	pt.LQSearches.Observe(o.LQSearches)
	pt.RAWSquash.Observe(o.RAWSquash)
	pt.ConsSquash.Observe(o.ConsSquash)
}

// Run computes the full §5.1 matrix: every machine × every selected
// workload (uniprocessor workloads on one core, multiprocessor
// workloads on MPCores with Samples samples). The unit of parallelism
// is the (machine, workload, sample) cell, run on par.Sweep — each
// sample already has a deterministic derived seed, so samples of one
// point spread across the worker pool like any other cell. A bad
// checkpoint path or a journal written by a different build is
// returned as an error (the CLI maps it to the exit-code table) rather
// than panicking.
func Run(cfg Config, machines []string) (*Matrix, error) {
	m := &Matrix{Cfg: cfg, Points: make(map[string]map[string]*Point)}
	for _, name := range machines {
		m.Points[name] = make(map[string]*Point)
		for _, w := range cfg.workloadSet() {
			m.Points[name][w.Name] = &Point{Machine: name, Workload: w.Name, Multi: w.Multi}
		}
	}
	cells := cfg.Cells(machines)
	obs, failures, resumed, err := par.Sweep(par.SweepOptions[CellObs]{
		Workers: cfg.Workers, Retries: cfg.Retries, Timeout: cfg.CellTimeout,
		Journal: cfg.Checkpoint,
		Key: func(i int) string {
			c := cells[i]
			return cachekey.Sim("matrix", machineFor(c.Machine), c.Workload, c.Cores, 0, c.Instr, c.Seed)
		},
		Label: func(i int) string {
			c := cells[i]
			return fmt.Sprintf("%s|%s|cores=%d|instr=%d|seed=%d",
				c.Machine, c.Workload.Name, c.Cores, c.Instr, c.Seed)
		},
	}, len(cells), func(i int) (CellObs, error) {
		c := cells[i]
		return MeasureCell(machineFor(c.Machine), c.Workload, c.Cores, c.Instr, c.Seed), nil
	})
	if err != nil {
		return nil, err
	}
	m.Failed, m.Resumed = failures, resumed
	failed := make(map[int]bool, len(failures))
	for _, f := range failures {
		failed[f.Index] = true
	}
	// Fold in canonical cell order, never in completion order.
	for i, c := range cells {
		if !failed[i] {
			foldCell(m.Points[c.Machine][c.Workload.Name], obs[i])
		}
	}
	return m, nil
}

// workloadNames returns the matrix's workloads, uniprocessor first.
func (m *Matrix) workloadNames() (uni, mp []string) {
	seen := map[string]bool{}
	for _, w := range m.Cfg.workloadSet() {
		if seen[w.Name] {
			continue
		}
		seen[w.Name] = true
		if w.Multi {
			mp = append(mp, w.Name)
		} else {
			uni = append(uni, w.Name)
		}
	}
	sort.Strings(uni)
	sort.Strings(mp)
	return uni, mp
}

func writeHeader(w io.Writer, title string, cols []string) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-12s", "workload")
	for _, c := range cols {
		fmt.Fprintf(w, " %15s", c)
	}
	fmt.Fprintln(w)
}
