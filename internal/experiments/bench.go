// The bench experiment: a regression harness for the simulator's own
// speed, as opposed to the simulated machines' performance that every
// other experiment measures. It times steady-state simulation windows
// (simulated instructions per wall second, allocations and bytes per
// committed instruction), quiescence fast-forward and stage-skip A/B
// pairs, and whole-figure regenerations, and emits a JSON report
// (BENCH_3.json) that can be diffed across commits. The report embeds
// the pre-optimization reference numbers and the BENCH_1 and BENCH_2
// baselines for lineage, and evaluates regression gates on
// host-independent measures only — same-process A/B ratios, allocation
// counts and bit-identity — so CI can fail on a slowdown without any
// external state.

package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"time"

	"vbmo/internal/config"
	"vbmo/internal/litmus"
	"vbmo/internal/par"
	"vbmo/internal/system"
	"vbmo/internal/workload"
)

// ThroughputCell is one steady-state simulation-speed measurement:
// warm a system past its compulsory-miss phase, then time a fixed
// instruction window with the allocator stats sampled on both sides.
type ThroughputCell struct {
	Machine  string `json:"machine"`
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	// Instrs is the committed-instruction count of the timed window,
	// summed over cores.
	Instrs uint64 `json:"instrs"`
	// WallSec is the wall-clock duration of the timed window.
	WallSec float64 `json:"wall_sec"`
	// InstrsPerSec is the headline simulator speed, Instrs / WallSec.
	InstrsPerSec float64 `json:"instrs_per_sec"`
	// AllocsPerInstr is heap allocations per committed instruction in
	// the window (the hot path's steady-state target is ~0).
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	// BytesPerInstr is heap bytes allocated per committed instruction.
	BytesPerInstr float64 `json:"bytes_per_instr"`
}

// FigureTime is the wall time of one end-to-end figure regeneration at
// reduced budget — the number a contributor actually waits on.
type FigureTime struct {
	Name    string  `json:"name"`
	WallSec float64 `json:"wall_sec"`
}

// PrePRBaseline holds the reference numbers measured on the code
// before the allocation-free hot-path rework (same workloads, same
// budgets), kept here so BENCH_1.json is self-describing: current /
// baseline is the speedup, and a current number drifting back toward
// the baseline is a regression.
type PrePRBaseline struct {
	// BenchMsPerOp: BenchmarkSimulatorThroughput ms/op (20k-instr gzip
	// run including construction).
	BenchMsPerOp float64 `json:"bench_ms_per_op"`
	// BenchAllocsPerOp: allocs/op of the same benchmark.
	BenchAllocsPerOp float64 `json:"bench_allocs_per_op"`
	// SteadyInstrsPerSec: warm baseline/gzip simulation speed.
	SteadyInstrsPerSec float64 `json:"steady_instrs_per_sec"`
	// SteadyAllocsPerInstr: warm baseline/gzip allocations per
	// committed instruction.
	SteadyAllocsPerInstr float64 `json:"steady_allocs_per_instr"`
	// SteadyBytesPerInstr: warm baseline/gzip heap bytes per committed
	// instruction.
	SteadyBytesPerInstr float64 `json:"steady_bytes_per_instr"`
}

// prePR is the recorded pre-optimization reference (commit a8b8856,
// this host class): see DESIGN.md §9.
var prePR = PrePRBaseline{
	BenchMsPerOp:         15.744,
	BenchAllocsPerOp:     1778,
	SteadyInstrsPerSec:   1.744e6,
	SteadyAllocsPerInstr: 0.0492,
	SteadyBytesPerInstr:  189.3,
}

// Bench1Cell is one embedded BENCH_1 throughput reference point.
type Bench1Cell struct {
	Machine      string  `json:"machine"`
	Workload     string  `json:"workload"`
	Cores        int     `json:"cores"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
}

// Bench1Baseline embeds the committed BENCH_1.json reference so the
// schema-2 report's regression gates are self-contained.
type Bench1Baseline struct {
	BenchMsPerOp float64      `json:"bench_ms_per_op"`
	Cells        []Bench1Cell `json:"cells"`
}

// bench1 is the recorded BENCH_1.json throughput baseline (same host
// class as prePR).
var bench1 = Bench1Baseline{
	BenchMsPerOp: 10.010683,
	Cells: []Bench1Cell{
		{"baseline", "gzip", 1, 2178520.976937206},
		{"no-recent-snoop", "gzip", 1, 2133452.0101571516},
		{"replay-all", "gzip", 1, 1810314.1247764996},
		{"baseline", "ocean", 4, 2996004.661893016},
	},
}

// Bench2Cell is one embedded BENCH_2 throughput reference point,
// including its allocator rates (the spin allocation anomaly fixed in
// the stage-skip PR is gated against regression through these).
type Bench2Cell struct {
	Machine        string  `json:"machine"`
	Workload       string  `json:"workload"`
	Cores          int     `json:"cores"`
	InstrsPerSec   float64 `json:"instrs_per_sec"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	BytesPerInstr  float64 `json:"bytes_per_instr"`
}

// Bench2Baseline embeds the committed BENCH_2.json reference so the
// schema-3 report's regression gates are self-contained.
type Bench2Baseline struct {
	BenchMsPerOp float64      `json:"bench_ms_per_op"`
	Cells        []Bench2Cell `json:"cells"`
}

// bench2 is the recorded BENCH_2.json throughput baseline (same host
// class as prePR and bench1).
var bench2 = Bench2Baseline{
	BenchMsPerOp: 10.324408,
	Cells: []Bench2Cell{
		{"baseline", "gzip", 1, 2142038.6572595173, 0.0005749712514374281, 4.942152892355383},
		{"no-recent-snoop", "gzip", 1, 2128748.8597888923, 0.00055, 4.942},
		{"replay-all", "gzip", 1, 1819794.0347803885, 0.000549958753093518, 4.941629377796665},
		{"baseline", "ocean", 4, 3143685.2629217636, 0.0017069109075770192, 4.945545378850958},
		{"baseline", "ocean", 16, 2756354.2759272433, 0.0014469972205161303, 4.922871925130907},
		{"baseline", "spin", 1, 923447.0518708205, 0.03659268146370726, 186.1995600879824},
		{"baseline", "spin-mp", 16, 67514.18746554284, 0.05890610377456587, 300.5461162524696},
	},
}

// FFCell is one quiescence fast-forward A/B measurement: the same
// steady-state window simulated with skipping on and off. Identical
// asserts the bit-identity contract on the pair's end-of-run results.
type FFCell struct {
	Machine  string `json:"machine"`
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	// OnInstrsPerSec / OffInstrsPerSec are the window speeds with
	// fast-forward enabled / disabled; Speedup is their ratio.
	OnInstrsPerSec  float64 `json:"on_instrs_per_sec"`
	OffInstrsPerSec float64 `json:"off_instrs_per_sec"`
	Speedup         float64 `json:"speedup"`
	// SkippedFrac is the fraction of the enabled run's cycles covered
	// by fast-forward windows.
	SkippedFrac float64 `json:"skipped_frac"`
	// Identical is true when the two runs' results (cycle count,
	// pipeline statistics, every named counter) matched exactly.
	Identical bool `json:"identical"`
}

// StageSkipCell is one stage-skip A/B measurement: the same busy-region
// steady-state window simulated with the per-stage readiness layer on
// and off (fast-forward stays at its default in both runs). The skip
// fractions are the enabled run's per-stage skip counters over the
// window's stepped core-cycles.
type StageSkipCell struct {
	Machine  string `json:"machine"`
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	// NoFastForward marks the cells measured with the quiescence
	// fast-forward disabled in both arms — the stall-bound regime where
	// the stage skip carries the run on its own.
	NoFastForward bool `json:"no_fastforward,omitempty"`
	// OnInstrsPerSec / OffInstrsPerSec are the window speeds with stage
	// skipping enabled / disabled; Speedup is their ratio.
	OnInstrsPerSec  float64 `json:"on_instrs_per_sec"`
	OffInstrsPerSec float64 `json:"off_instrs_per_sec"`
	Speedup         float64 `json:"speedup"`
	// Per-stage skip fractions of the enabled run (stage scans elided /
	// core-cycles stepped).
	WritebackFrac float64 `json:"writeback_frac"`
	CaptureFrac   float64 `json:"capture_frac"`
	CommitFrac    float64 `json:"commit_frac"`
	ReplayFrac    float64 `json:"replay_frac"`
	IssueFrac     float64 `json:"issue_frac"`
	// Identical is true when the two runs' results (cycle count,
	// pipeline statistics, every named counter) matched exactly.
	Identical bool `json:"identical"`
}

// GateResult is one pass/fail regression gate evaluated by the bench
// experiment; CI fails the build when any gate fails.
type GateResult struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// BenchReport is the BENCH_1.json document.
type BenchReport struct {
	Schema     int    `json:"schema"`
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// BenchMsPerOp and BenchAllocsPerOp mirror the root
	// BenchmarkSimulatorThroughput measurement (construct a baseline
	// gzip system, run 20k instructions) so the report is directly
	// comparable to PrePRBaseline.BenchMsPerOp without running go test.
	BenchMsPerOp     float64 `json:"bench_ms_per_op"`
	BenchAllocsPerOp float64 `json:"bench_allocs_per_op"`
	// Throughput holds the steady-state simulation-speed cells.
	Throughput []ThroughputCell `json:"throughput"`
	// FastForward holds the quiescence-skip A/B cells.
	FastForward []FFCell `json:"fast_forward"`
	// StageSkip holds the per-stage readiness-skip A/B cells.
	StageSkip []StageSkipCell `json:"stage_skip"`
	// Figures holds end-to-end figure regeneration wall times.
	Figures []FigureTime `json:"figures"`
	// Gates holds the evaluated regression gates; AllPass is their
	// conjunction.
	Gates   []GateResult `json:"gates"`
	AllPass bool         `json:"all_pass"`
	// PrePRBaseline is the fixed pre-optimization reference.
	PrePRBaseline PrePRBaseline `json:"pre_pr_baseline"`
	// Bench1Baseline is the embedded BENCH_1 throughput reference,
	// kept for lineage.
	Bench1Baseline Bench1Baseline `json:"bench1_baseline"`
	// Bench2Baseline is the embedded BENCH_2 reference the schema-3
	// gates compare against.
	Bench2Baseline Bench2Baseline `json:"bench2_baseline"`
}

// benchRepeats is how many times each timed window runs; the fastest
// repeat is kept. Wall clock on shared-CPU hosts swings >30% between
// runs of the same binary, so gates compare best against best instead
// of gating on scheduler noise. Simulated results are bit-identical
// across repeats, so any repeat's system and allocation counts stand
// for all of them.
const benchRepeats = 3

// arm selects the speed layers one timed window runs with.
type arm struct{ noFF, noSkip bool }

// runWindow warms one system past its cold-start phase and times a
// steady-state window with allocator stats sampled on both sides. It
// returns the cell and the timed system for result comparison and skip
// accounting. Committed instructions are read through Result after the
// clock stops, so the summary's allocations stay out of the window.
func runWindow(machineName string, mc config.Machine, work workload.Params,
	cores int, warm, window uint64, a arm) (ThroughputCell, *system.System) {
	opt := system.Options{Cores: cores, Seed: 1, DMAInterval: 4000, DMABurst: 2,
		NoFastForward: a.noFF, NoStageSkip: a.noSkip}
	s := system.New(mc, work, opt)
	s.Advance(warm, opt)
	s.ResetStats()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	s.Advance(window, opt)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)

	committed := s.Result().Pipe.Committed
	if committed == 0 {
		committed = 1
	}
	return ThroughputCell{
		Machine:        machineName,
		Workload:       work.Name,
		Cores:          cores,
		Instrs:         committed,
		WallSec:        wall,
		InstrsPerSec:   float64(committed) / wall,
		AllocsPerInstr: float64(m1.Mallocs-m0.Mallocs) / float64(committed),
		BytesPerInstr:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(committed),
	}, s
}

// measureThroughput keeps the fastest of benchRepeats timed windows with
// both speed layers at their defaults.
func measureThroughput(machineName string, mc config.Machine, work workload.Params,
	cores int, warm, window uint64) ThroughputCell {
	var best ThroughputCell
	for i := 0; i < benchRepeats; i++ {
		if c, _ := runWindow(machineName, mc, work, cores, warm, window, arm{}); i == 0 || c.WallSec < best.WallSec {
			best = c
		}
	}
	return best
}

// measureAB times the same window under two arms, interleaved — on,
// off, on, off, ... — so host drift during the measurement lands on both
// arms alike, and keeps each arm's fastest repeat and its system.
func measureAB(machineName string, mc config.Machine, work workload.Params,
	cores int, warm, window uint64, onArm, offArm arm) (on, off ThroughputCell, sOn, sOff *system.System) {
	for i := 0; i < benchRepeats; i++ {
		if c, s := runWindow(machineName, mc, work, cores, warm, window, onArm); i == 0 || c.WallSec < on.WallSec {
			on, sOn = c, s
		}
		if c, s := runWindow(machineName, mc, work, cores, warm, window, offArm); i == 0 || c.WallSec < off.WallSec {
			off, sOff = c, s
		}
	}
	return on, off, sOn, sOff
}

// measureFF times the same steady-state window with fast-forward on
// and off and checks the two runs' end states for bit-identity.
func measureFF(machineName string, mc config.Machine, work workload.Params,
	cores int, warm, window uint64) FFCell {
	on, off, sOn, sOff := measureAB(machineName, mc, work, cores, warm, window,
		arm{}, arm{noFF: true})
	ffs := sOn.FastForwardStats()
	cell := FFCell{
		Machine:         machineName,
		Workload:        work.Name,
		Cores:           cores,
		OnInstrsPerSec:  on.InstrsPerSec,
		OffInstrsPerSec: off.InstrsPerSec,
		Speedup:         on.InstrsPerSec / off.InstrsPerSec,
		SkippedFrac:     float64(ffs.SkippedCycles) / maxf(float64(sOn.CycleNum), 1),
		Identical: sOn.CycleNum == sOff.CycleNum &&
			reflect.DeepEqual(sOn.Result(), sOff.Result()),
	}
	return cell
}

// measureStageSkip times the same steady-state window with the
// per-stage readiness layer on and off and checks the two runs' end
// states for bit-identity. The skip-rate denominator is the enabled
// run's window core-cycles (per-core Stats.Cycles summed over cores;
// fast-forwarded cycles are included in it, so on FF-heavy workloads
// the fractions understate the per-stepped-cycle rate). noFF disables
// the quiescence fast-forward in both arms — that isolates the stage
// skip on stall-bound workloads, the regime where it carries the run
// because whole-machine fast-forward is unavailable (OnCycle hooks
// and fault campaigns suspend it).
func measureStageSkip(machineName string, mc config.Machine, work workload.Params,
	cores int, warm, window uint64, noFF bool) StageSkipCell {
	on, off, sOn, sOff := measureAB(machineName, mc, work, cores, warm, window,
		arm{noFF: noFF}, arm{noFF: noFF, noSkip: true})
	sk := sOn.StageSkipStats()
	cc := maxf(float64(sOn.Result().Pipe.Cycles), 1)
	return StageSkipCell{
		Machine:         machineName,
		Workload:        work.Name,
		Cores:           cores,
		OnInstrsPerSec:  on.InstrsPerSec,
		OffInstrsPerSec: off.InstrsPerSec,
		Speedup:         on.InstrsPerSec / off.InstrsPerSec,
		WritebackFrac:   float64(sk.Writeback) / cc,
		CaptureFrac:     float64(sk.Capture) / cc,
		CommitFrac:      float64(sk.Commit) / cc,
		ReplayFrac:      float64(sk.Replay) / cc,
		IssueFrac:       float64(sk.Issue) / cc,
		Identical: sOn.CycleNum == sOff.CycleNum &&
			reflect.DeepEqual(sOn.Result(), sOff.Result()),
	}
}

// benchWorkload resolves a workload by name, panicking on a typo —
// the cell list below is static.
func benchWorkload(name string) workload.Params {
	w, ok := workload.ByName(name)
	if !ok {
		panic("experiments: unknown bench workload " + name)
	}
	return w
}

// Bench runs the simulator-speed regression harness and writes a
// human-readable summary to w. The cells cover the baseline and the
// two most-exercised replay machines on a uniprocessor workload, plus
// one multiprocessor cell (coherence traffic exercises different
// paths); the figure timings cover the §5.1 matrix, Figure 8, and a
// reduced litmus sweep.
func Bench(w io.Writer, cfg Config) BenchReport {
	rep := BenchReport{
		Schema:         3,
		Generated:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		PrePRBaseline:  prePR,
		Bench1Baseline: bench1,
		Bench2Baseline: bench2,
	}

	// Mirror BenchmarkSimulatorThroughput: cold construction plus a
	// 20k-instruction run, best-of-3 to shrug off scheduler noise.
	{
		work := benchWorkload("gzip")
		mc := machineFor("baseline")
		opt := system.Options{Cores: 1, Seed: 1, DMAInterval: 4000, DMABurst: 2}
		best := 0.0
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			s := system.New(mc, work, opt)
			s.Run(20000, opt)
			if d := time.Since(t0).Seconds(); best == 0 || d < best {
				best = d
			}
		}
		runtime.ReadMemStats(&m1)
		rep.BenchMsPerOp = best * 1e3
		rep.BenchAllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / 3
		fmt.Fprintf(w, "\n== BenchmarkSimulatorThroughput equivalent (best of 3) ==\n")
		fmt.Fprintf(w, "%.3f ms/op (pre-optimization reference %.3f ms/op, %.2fx), %.0f allocs/op (reference %.0f)\n",
			rep.BenchMsPerOp, prePR.BenchMsPerOp, prePR.BenchMsPerOp/rep.BenchMsPerOp,
			rep.BenchAllocsPerOp, prePR.BenchAllocsPerOp)
	}

	type cellSpec struct {
		machine      string
		work         string
		cores        int
		warm, window uint64
	}
	cells := []cellSpec{
		{"baseline", "gzip", 1, 10000, 40000},
		{"no-recent-snoop", "gzip", 1, 10000, 40000},
		{"replay-all", "gzip", 1, 10000, 40000},
		{"baseline", "ocean", 4, 2000, 6000},
		{"baseline", "ocean", 16, 2000, 6000},
		{"baseline", "spin", 1, 2000, 20000},
		{"baseline", "spin-mp", 16, 300, 1200},
	}
	fmt.Fprintf(w, "\n== Simulator speed: steady-state windows ==\n")
	fmt.Fprintf(w, "%-16s %-10s %5s %10s %12s %14s %12s\n",
		"machine", "workload", "cores", "instrs", "wall (ms)", "instrs/sec", "allocs/instr")
	for _, c := range cells {
		cell := measureThroughput(c.machine, machineFor(c.machine), benchWorkload(c.work),
			c.cores, c.warm, c.window)
		rep.Throughput = append(rep.Throughput, cell)
		fmt.Fprintf(w, "%-16s %-10s %5d %10d %12.2f %14.0f %12.4f\n",
			cell.Machine, cell.Workload, cell.Cores, cell.Instrs,
			cell.WallSec*1e3, cell.InstrsPerSec, cell.AllocsPerInstr)
	}

	ffSpecs := []cellSpec{
		{"baseline", "spin", 1, 2000, 20000},
		{"baseline", "spin-mp", 16, 300, 1200},
	}
	fmt.Fprintf(w, "\n== Quiescence fast-forward A/B (same window, skip on/off) ==\n")
	fmt.Fprintf(w, "%-16s %-10s %5s %14s %14s %9s %9s %10s\n",
		"machine", "workload", "cores", "on instrs/s", "off instrs/s", "speedup", "skipped", "identical")
	for _, c := range ffSpecs {
		cell := measureFF(c.machine, machineFor(c.machine), benchWorkload(c.work),
			c.cores, c.warm, c.window)
		rep.FastForward = append(rep.FastForward, cell)
		fmt.Fprintf(w, "%-16s %-10s %5d %14.0f %14.0f %8.1fx %8.1f%% %10t\n",
			cell.Machine, cell.Workload, cell.Cores, cell.OnInstrsPerSec,
			cell.OffInstrsPerSec, cell.Speedup, 100*cell.SkippedFrac, cell.Identical)
	}

	// The spin/noFF cell isolates the layer where it carries the run:
	// stall-bound cycles with whole-machine fast-forward unavailable
	// (as in OnCycle-hooked and fault-campaign runs). The busy cells
	// pin identity and engagement; their speedup is parity-level by
	// design — busy stages have work, so there is little to skip.
	skipSpecs := []struct {
		machine, work string
		cores         int
		warm, window  uint64
		noFF          bool
	}{
		{"baseline", "gzip", 1, 10000, 40000, false},
		{"replay-all", "gzip", 1, 10000, 40000, false},
		{"baseline", "ocean", 4, 2000, 6000, false},
		{"baseline", "spin", 1, 2000, 20000, true},
	}
	fmt.Fprintf(w, "\n== Stage-skip A/B (same window, readiness layer on/off) ==\n")
	fmt.Fprintf(w, "%-16s %-10s %5s %5s %14s %14s %9s %28s %10s\n",
		"machine", "workload", "cores", "ff", "on instrs/s", "off instrs/s", "speedup", "skip% wb/cap/com/rep/iss", "identical")
	for _, c := range skipSpecs {
		cell := measureStageSkip(c.machine, machineFor(c.machine), benchWorkload(c.work),
			c.cores, c.warm, c.window, c.noFF)
		cell.NoFastForward = c.noFF
		rep.StageSkip = append(rep.StageSkip, cell)
		ff := "on"
		if c.noFF {
			ff = "off"
		}
		fmt.Fprintf(w, "%-16s %-10s %5d %5s %14.0f %14.0f %8.2fx  %4.0f/%4.0f/%4.0f/%4.0f/%4.0f %11t\n",
			cell.Machine, cell.Workload, cell.Cores, ff, cell.OnInstrsPerSec,
			cell.OffInstrsPerSec, cell.Speedup,
			100*cell.WritebackFrac, 100*cell.CaptureFrac, 100*cell.CommitFrac,
			100*cell.ReplayFrac, 100*cell.IssueFrac, cell.Identical)
	}

	timeFigure := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		ft := FigureTime{Name: name, WallSec: time.Since(t0).Seconds()}
		rep.Figures = append(rep.Figures, ft)
		fmt.Fprintf(w, "%-24s %10.2f ms\n", ft.Name, ft.WallSec*1e3)
	}
	figCfg := cfg
	figCfg.Workloads = []string{"gzip", "vortex", "tpcb", "ocean"}
	// The timing closures re-run sweeps with budgets that differ from the
	// user's main run, so a shared checkpoint journal would be rejected;
	// the timed figures always run journal-free.
	figCfg.Checkpoint = ""
	fmt.Fprintf(w, "\n== Figure regeneration wall time (quick budgets) ==\n")
	timeFigure("fig5-matrix", func() {
		m, err := Run(figCfg, MachineNames)
		if err != nil {
			fmt.Fprintf(w, "fig5-matrix: %v\n", err)
			return
		}
		Figure5(io.Discard, m)
	})
	fig8Cfg := figCfg
	fig8Cfg.Workloads = []string{"gzip"}
	timeFigure("fig8", func() {
		if err := Figure8(io.Discard, fig8Cfg); err != nil {
			fmt.Fprintf(w, "fig8: %v\n", err)
		}
	})
	timeFigure("litmus-sweep", func() {
		workers := 1
		if cfg.Parallel {
			workers = par.Workers(cfg.Workers)
		}
		if _, err := litmus.Sweep(litmus.SweepOptions{
			Tests: litmus.Battery(), Configs: litmus.Configs(),
			Runs: 20, Workers: workers, Seed: cfg.Seed,
		}); err != nil {
			fmt.Fprintf(w, "litmus-sweep: %v\n", err)
		}
	})
	timeFigure("litmus-sweep-16", func() {
		workers := 1
		if cfg.Parallel {
			workers = par.Workers(cfg.Workers)
		}
		if _, err := litmus.Sweep(litmus.SweepOptions{
			Tests: litmus.Battery(), Configs: litmus.Configs(),
			Runs: 20, Workers: workers, Seed: cfg.Seed, Cores: 16,
		}); err != nil {
			fmt.Fprintf(w, "litmus-sweep-16: %v\n", err)
		}
	})

	evaluateGates(&rep)
	fmt.Fprintf(w, "\n== Regression gates ==\n")
	for _, g := range rep.Gates {
		status := "pass"
		if !g.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%-32s %-4s %s\n", g.Name, status, g.Detail)
	}

	base := rep.Throughput[0]
	fmt.Fprintf(w, "\nheadline: %.2fx end-to-end (ms/op), %.0fx fewer steady-state allocs/instr vs pre-optimization reference\n",
		prePR.BenchMsPerOp/rep.BenchMsPerOp,
		prePR.SteadyAllocsPerInstr/maxf(base.AllocsPerInstr, 1e-6))
	return rep
}

// Gate floors, set with margin below the measured achievement. Raw
// wall-clock on shared-CPU CI hosts swings by more than 30% between runs
// of the same binary, so every pass/fail floor below is a same-process
// A/B ratio or an allocation count; raw cross-host comparisons are
// reported but informational. The throughput cells carry no floor: a
// floor scaled by one anchor cell fails any change that speeds the
// anchor more than the other cells, by construction. The repository
// benchmark (BENCHMARK.json, cmd/vbrbench) measures end-to-end speed
// against a calibrated host index instead.
const (
	// parityFloor is the "not slower than off" floor of an A/B cell: a
	// speed layer must not slow the run it is on. It gates the busy gzip
	// stage-skip cell (measured 0.95-1.05x), the stall-bound spin
	// stage-skip cell with fast-forward off in both arms (1.21-2.19x:
	// both arms run the wake-up issue stage, DESIGN.md §18, so skipping
	// saves little there) and the 16-way spin-mp fast-forward cell
	// (1.19-1.79x).
	// The 0.93x margin absorbs noise without hiding a real regression.
	parityFloor = 0.93
	// ffSpinSpeedupFloor gates the spin fast-forward on/off ratio.
	// BENCH_2 measured >3x, but this leg made the non-fast-forward
	// spin baseline ~2.4x faster (sparse-overlay image + stage skip),
	// which shrinks the ratio while absolute speed improved; measured
	// 2.2-2.6x now, floor 1.8x.
	ffSpinSpeedupFloor = 1.8
	// spinAllocsCeil / spinBytesCeil gate the spin allocation-anomaly
	// fix: BENCH_2 measured 0.0366 allocs and 186 bytes per
	// instruction; the sparse-overlay image measures 0.0038-0.0041
	// allocs and 52-55 bytes. The bytes ceiling is looser than the
	// steady-state figure (~4 bytes/instr over 500k instrs) because
	// the short bench window amortizes overlay-map growth poorly.
	spinAllocsCeil = 0.005
	spinBytesCeil  = 80.0
)

// evaluateGates fills rep.Gates and rep.AllPass. Every gate is
// host-independent: fast-forward and stage-skip A/B pairs must be
// bit-identical; the spin fast-forward speedup must hold its floor; the
// spin-mp/16 fast-forward cell, the stall-bound (fast-forward-off) spin
// stage-skip cell and the busy gzip stage-skip cell must hold parity,
// the last with sane skip rates; and the spin allocation rates must
// stay fixed. The throughput cells and the raw gzip-vs-BENCH_2 ratio
// are reported for the record but never fail the run.
func evaluateGates(rep *BenchReport) {
	cur := func(machine, work string, cores int) *ThroughputCell {
		for i := range rep.Throughput {
			c := &rep.Throughput[i]
			if c.Machine == machine && c.Workload == work && c.Cores == cores {
				return c
			}
		}
		return nil
	}
	if c := cur("baseline", "gzip", 1); c != nil {
		// Informational, always passes: raw wall-clock varies >30%
		// between runs on shared-CPU hosts, so a raw cross-host floor
		// would gate on machine noise.
		rep.Gates = append(rep.Gates, GateResult{
			Name: "throughput/baseline/gzip/vs-bench2", Pass: true,
			Detail: fmt.Sprintf("%.2fx of raw BENCH_2 (informational; host-dependent)",
				c.InstrsPerSec/bench2.Cells[0].InstrsPerSec),
		})
	}
	if c := cur("baseline", "spin", 1); c != nil {
		rep.Gates = append(rep.Gates, GateResult{
			Name: "alloc/baseline/spin/allocs-per-instr", Pass: c.AllocsPerInstr <= spinAllocsCeil,
			Detail: fmt.Sprintf("%.4f allocs/instr, ceiling %.4f (BENCH_2 anomaly: %.4f)",
				c.AllocsPerInstr, spinAllocsCeil, bench2.Cells[5].AllocsPerInstr),
		})
		rep.Gates = append(rep.Gates, GateResult{
			Name: "alloc/baseline/spin/bytes-per-instr", Pass: c.BytesPerInstr <= spinBytesCeil,
			Detail: fmt.Sprintf("%.1f bytes/instr, ceiling %.1f (BENCH_2 anomaly: %.1f)",
				c.BytesPerInstr, spinBytesCeil, bench2.Cells[5].BytesPerInstr),
		})
	}
	for _, sc := range rep.StageSkip {
		name := fmt.Sprintf("stage-skip/%s/%s/%d", sc.Machine, sc.Workload, sc.Cores)
		if sc.NoFastForward {
			name += "-noff"
		}
		rep.Gates = append(rep.Gates, GateResult{
			Name: name + "/bit-identical", Pass: sc.Identical,
			Detail: fmt.Sprintf("skip on/off results match: %t", sc.Identical),
		})
		if sc.NoFastForward && sc.Workload == "spin" {
			rep.Gates = append(rep.Gates, GateResult{
				Name: name + "/speedup", Pass: sc.Speedup >= parityFloor,
				Detail: fmt.Sprintf("%.2fx, floor %.2fx (stall-bound, fast-forward off in both arms)",
					sc.Speedup, parityFloor),
			})
		}
		if sc.Machine == "baseline" && sc.Workload == "gzip" {
			rep.Gates = append(rep.Gates, GateResult{
				Name: name + "/parity", Pass: sc.Speedup >= parityFloor,
				Detail: fmt.Sprintf("%.2fx, floor %.2fx (busy cell: layer must not slow the run)",
					sc.Speedup, parityFloor),
			})
			sane := true
			for _, f := range []float64{sc.WritebackFrac, sc.CaptureFrac, sc.CommitFrac, sc.IssueFrac} {
				if f <= 0.01 || f >= 0.999 {
					sane = false
				}
			}
			rep.Gates = append(rep.Gates, GateResult{
				Name: name + "/skip-rates-sane", Pass: sane,
				Detail: fmt.Sprintf("wb=%.0f%% cap=%.0f%% com=%.0f%% iss=%.0f%% of core-cycles (each must sit in (1%%, 99.9%%))",
					100*sc.WritebackFrac, 100*sc.CaptureFrac, 100*sc.CommitFrac, 100*sc.IssueFrac),
			})
		}
	}
	for _, f := range rep.FastForward {
		name := fmt.Sprintf("fast-forward/%s/%s/%d", f.Machine, f.Workload, f.Cores)
		floor := parityFloor // every other fast-forward cell: not slower than off
		if f.Workload == "spin" {
			floor = ffSpinSpeedupFloor
		}
		rep.Gates = append(rep.Gates, GateResult{
			Name: name + "/speedup", Pass: f.Speedup >= floor,
			Detail: fmt.Sprintf("%.2fx, floor %.2fx", f.Speedup, floor),
		})
		rep.Gates = append(rep.Gates, GateResult{
			Name: name + "/bit-identical", Pass: f.Identical,
			Detail: fmt.Sprintf("skip on/off results match: %t", f.Identical),
		})
	}
	rep.AllPass = true
	for _, g := range rep.Gates {
		if !g.Pass {
			rep.AllPass = false
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// WriteBenchReport writes the report as indented JSON to path.
func WriteBenchReport(path string, rep BenchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
