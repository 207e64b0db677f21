// Command experiments regenerates the paper's tables and figures.
//
//	experiments -experiment all          # everything
//	experiments -experiment fig5         # one figure
//	experiments -quick                   # reduced budgets
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vbmo/internal/exitcode"
	"vbmo/internal/experiments"
)

func main() {
	var (
		which       = flag.String("experiment", "all", "all | tables | fig5 | fig6 | fig7 | fig8 | squash | power | relatedwork | snapshots | litmus | faults")
		quick       = flag.Bool("quick", false, "reduced instruction budgets and core counts")
		cores       = flag.Int("cores", 0, "override MP core count")
		uniInstr    = flag.Uint64("uni", 0, "override uniprocessor instructions")
		mpInstr     = flag.Uint64("mp", 0, "override per-core MP instructions")
		samples     = flag.Int("samples", 0, "override MP sample count")
		works       = flag.String("workloads", "", "comma-separated workload subset")
		workers     = flag.Int("workers", 0, "worker pool size (1 = serial, 0 = one per GOMAXPROCS)")
		resume      = flag.String("resume", "", "JSONL checkpoint journal for the §5.1 matrix; completed cells are replayed, not re-run")
		retries     = flag.Int("retries", 0, "re-attempts for a failed matrix cell")
		cellTimeout = flag.Duration("cell-timeout", 0, "per-cell wall-clock deadline for the §5.1 matrix (0 = none; nondeterministic)")

		snapDir    = flag.String("snapshot-dir", "", "directory for snapshots experiment JSONL output (empty = print only)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitcode.Err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitcode.Err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *cores > 0 {
		cfg.MPCores = *cores
	}
	if *uniInstr > 0 {
		cfg.UniInstr = *uniInstr
	}
	if *mpInstr > 0 {
		cfg.MPInstr = *mpInstr
	}
	if *samples > 0 {
		cfg.Samples = *samples
	}
	if *works != "" {
		cfg.Workloads = strings.Split(*works, ",")
	}
	cfg.Workers = *workers
	cfg.Checkpoint = *resume
	cfg.Retries = *retries
	cfg.CellTimeout = *cellTimeout

	w := os.Stdout
	start := time.Now()
	// failed accumulates every soundness or infrastructure failure; the
	// run always reports everything it measured, then exits nonzero if
	// anything went wrong (graceful degradation, audited exit path).
	failed := false

	needMatrix := map[string]bool{"all": true, "fig5": true, "fig6": true, "fig7": true, "squash": true, "power": true}
	var m *experiments.Matrix
	if needMatrix[*which] {
		fmt.Fprintf(w, "running §5.1 matrix: %d machines × workloads (uni %d instr, %d-way MP %d instr × %d samples)...\n",
			len(experiments.MachineNames), cfg.UniInstr, cfg.MPCores, cfg.MPInstr, cfg.Samples)
		var err error
		m, err = experiments.Run(cfg, experiments.MachineNames)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitcode.Err)
		}
		if m.Resumed > 0 {
			fmt.Fprintf(w, "resumed %d cell(s) from %s\n", m.Resumed, cfg.Checkpoint)
		}
		for _, f := range m.Failed {
			fmt.Fprintf(os.Stderr, "FAILED %s\n", f)
			failed = true
		}
	}

	switch *which {
	case "all":
		experiments.Tables(w)
		experiments.Figure5(w, m)
		experiments.Figure6(w, m)
		experiments.Figure7(w, m)
		experiments.SquashStats(w, m)
		experiments.Power(w, m)
		if err := experiments.Figure8(w, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
		experiments.RelatedWork(w, cfg)
		if sum := experiments.LitmusMatrix(w, cfg); !sum.SoundOK || !sum.UnsoundCaught {
			fmt.Fprintln(os.Stderr, "litmus battery failed")
			failed = true
		}
		if sum := experiments.FaultMatrix(w, cfg); !sum.OK() {
			fmt.Fprintln(os.Stderr, "fault-injection matrix failed")
			failed = true
		}
	case "tables":
		experiments.Tables(w)
	case "fig5":
		experiments.Figure5(w, m)
	case "fig6":
		experiments.Figure6(w, m)
	case "fig7":
		experiments.Figure7(w, m)
	case "fig8":
		if err := experiments.Figure8(w, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitcode.Err)
		}
	case "squash":
		experiments.SquashStats(w, m)
	case "power":
		experiments.Power(w, m)
	case "relatedwork":
		experiments.RelatedWork(w, cfg)
	case "snapshots":
		if err := experiments.Snapshots(w, cfg, *snapDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitcode.Err)
		}
	case "litmus":
		if sum := experiments.LitmusMatrix(w, cfg); !sum.SoundOK || !sum.UnsoundCaught {
			failed = true
		}
	case "faults":
		if sum := experiments.FaultMatrix(w, cfg); !sum.OK() {
			failed = true
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(exitcode.Err)
	}
	// The elapsed time goes to stderr, so the tables on stdout are
	// deterministic and regenerate reference_output.txt byte for byte.
	fmt.Fprintf(os.Stderr, "[%s elapsed]\n", time.Since(start).Round(time.Millisecond))
	if failed {
		os.Exit(exitcode.Err)
	}
}
