// Cell expansion and execution: a JobSpec flattens into a deterministic
// list of cells, each carrying everything needed to run it and derive
// its content-addressed cache key. Expansion order is part of the job's
// result contract — results are reported in cell order, and the job's
// digest is computed over that sequence.

package farm

import (
	"encoding/json"
	"fmt"

	"vbmo/internal/config"
	"vbmo/internal/experiments"
	"vbmo/internal/farm/cachekey"
	"vbmo/internal/fault"
	"vbmo/internal/litmus"
	"vbmo/internal/system"
	"vbmo/internal/workload"
)

// Cell kinds.
const (
	KindLitmus = "litmus"
	KindMatrix = "matrix"
	KindBench  = "bench"
)

// Cell is one unit of farm execution. It is plain data: the journal
// and the HTTP API round-trip it through encoding/json.
type Cell struct {
	Kind string `json:"kind"`
	// Litmus cells.
	Test   string `json:"test,omitempty"`
	Config string `json:"config,omitempty"`
	Runs   int    `json:"runs,omitempty"`
	// Matrix and bench cells.
	Machine  string `json:"machine,omitempty"`
	Workload string `json:"workload,omitempty"`
	Instr    uint64 `json:"instr,omitempty"`
	Warm     uint64 `json:"warm,omitempty"`
	// Shared.
	Cores int           `json:"cores,omitempty"`
	Seed  uint64        `json:"seed"`
	Fault *fault.Config `json:"fault,omitempty"`
}

// BenchObs is the result of one bench cell: a steady-state window's
// cycle and commit counts. No wall-clock term appears, so the
// observation is deterministic and cacheable like any other.
type BenchObs struct {
	Cycles    int64   `json:"cycles"`
	Committed uint64  `json:"committed"`
	IPC       float64 `json:"ipc"`
}

// Cells expands the spec into its deterministic cell list: litmus cells
// first (test-major, config-minor, exactly litmus.Sweep's order), then
// matrix cells (experiments.Config.Cells, the order experiments.Run
// folds in; samples <= 0 means one), then bench cells (machine-major).
func (s JobSpec) Cells() ([]Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var cells []Cell
	if l := s.Litmus; l != nil {
		tests := l.Tests
		if len(tests) == 0 {
			for _, t := range litmus.Battery() {
				tests = append(tests, t.Name)
			}
		}
		cfgs := l.Configs
		if len(cfgs) == 0 {
			for _, c := range litmus.Configs() {
				cfgs = append(cfgs, c.Name)
			}
		}
		for ti, test := range tests {
			for ci, cfg := range cfgs {
				cells = append(cells, Cell{
					Kind: KindLitmus, Test: test, Config: cfg,
					Runs: l.Runs, Cores: l.Cores,
					Seed:  litmus.CellSeed(l.Seed, ti, ci),
					Fault: l.Fault,
				})
			}
		}
	}
	if m := s.Matrix; m != nil {
		machines := m.Machines
		if len(machines) == 0 {
			machines = experiments.MachineNames
		}
		cfg := experiments.Config{
			UniInstr: m.UniInstr, MPInstr: m.MPInstr, MPCores: m.MPCores,
			Samples: max(m.Samples, 1), Seed: m.Seed, Workloads: m.Workloads,
		}
		for _, c := range cfg.Cells(machines) {
			cells = append(cells, Cell{
				Kind: KindMatrix, Machine: c.Machine, Workload: c.Workload.Name,
				Cores: c.Cores, Instr: c.Instr, Seed: c.Seed,
			})
		}
	}
	if b := s.Bench; b != nil {
		for _, mc := range b.Machines {
			for _, w := range b.Workloads {
				cells = append(cells, Cell{
					Kind: KindBench, Machine: mc, Workload: w,
					Cores: b.Cores, Warm: b.Warm, Instr: b.Window, Seed: b.Seed,
				})
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("farm: job expands to zero cells")
	}
	return cells, nil
}

// Key derives the cell's content-addressed cache key: the code-version
// fingerprint, the cell kind, the content digests of the machine and
// workload (not just their registry names — a retuned machine changes
// the key), and every remaining parameter in the clear.
func (c Cell) Key() (string, error) {
	switch c.Kind {
	case KindLitmus:
		cfg, ok := litmus.ConfigByName(c.Config)
		if !ok {
			return "", fmt.Errorf("farm: unknown litmus config %q", c.Config)
		}
		return cachekey.Join(cachekey.Version(), KindLitmus, c.Test, c.Config,
			cachekey.Machine(cfg.Machine),
			fmt.Sprintf("runs=%d", c.Runs), fmt.Sprintf("cores=%d", c.Cores),
			fmt.Sprintf("seed=%d", c.Seed), cachekey.Fault(c.Fault)), nil
	case KindMatrix, KindBench:
		mc, ok := config.ByName(c.Machine)
		if !ok {
			return "", fmt.Errorf("farm: unknown machine %q", c.Machine)
		}
		w, ok := workload.ByName(c.Workload)
		if !ok {
			return "", fmt.Errorf("farm: unknown workload %q", c.Workload)
		}
		return cachekey.Join(cachekey.Version(), c.Kind,
			cachekey.Machine(mc), cachekey.Workload(w),
			fmt.Sprintf("cores=%d", c.Cores), fmt.Sprintf("warm=%d", c.Warm),
			fmt.Sprintf("instr=%d", c.Instr), fmt.Sprintf("seed=%d", c.Seed)), nil
	default:
		return "", fmt.Errorf("farm: unknown cell kind %q", c.Kind)
	}
}

// Execute runs the cell and returns its result as canonical JSON:
// json.Marshal's encoding, compact and HTML-escaped, which json.Marshal
// on a json.RawMessage leaves unchanged. These are the exact bytes the
// cache stores, the job digest hashes and the API serves, so a cached
// replay is byte-identical to a fresh execution.
func (c Cell) Execute() (json.RawMessage, error) {
	switch c.Kind {
	case KindLitmus:
		t, ok := litmus.ByName(c.Test)
		if !ok {
			return nil, fmt.Errorf("farm: unknown litmus test %q", c.Test)
		}
		cfg, ok := litmus.ConfigByName(c.Config)
		if !ok {
			return nil, fmt.Errorf("farm: unknown litmus config %q", c.Config)
		}
		v := litmus.RunCell(t, cfg, litmus.Allowed(t), c.Runs, c.Seed, c.Fault, c.Cores)
		return json.Marshal(v)
	case KindMatrix:
		mc, ok := config.ByName(c.Machine)
		if !ok {
			return nil, fmt.Errorf("farm: unknown machine %q", c.Machine)
		}
		w, ok := workload.ByName(c.Workload)
		if !ok {
			return nil, fmt.Errorf("farm: unknown workload %q", c.Workload)
		}
		return json.Marshal(experiments.MeasureCell(mc, w, c.Cores, c.Instr, c.Seed))
	case KindBench:
		mc, ok := config.ByName(c.Machine)
		if !ok {
			return nil, fmt.Errorf("farm: unknown machine %q", c.Machine)
		}
		w, ok := workload.ByName(c.Workload)
		if !ok {
			return nil, fmt.Errorf("farm: unknown workload %q", c.Workload)
		}
		opt := system.Options{Cores: c.Cores, Seed: c.Seed, DMAInterval: 4000, DMABurst: 2}
		s := system.New(mc, w, opt)
		s.Advance(c.Warm, opt)
		s.ResetStats()
		s.Advance(c.Instr, opt)
		res := s.Result()
		obs := BenchObs{Cycles: s.CycleNum, Committed: res.Pipe.Committed, IPC: res.IPC}
		return json.Marshal(obs)
	default:
		return nil, fmt.Errorf("farm: unknown cell kind %q", c.Kind)
	}
}
