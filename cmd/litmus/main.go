// Command litmus runs the memory-ordering litmus battery: every test is
// compiled to a multiprocessor program, swept across machine
// configurations × seeds × timing perturbations, and each committed
// outcome is classified against an exhaustive sequential-consistency
// oracle and cross-checked with the constraint-graph checker.
//
//	litmus -all                      # full battery × standard configs
//	litmus -test SB -runs 2000       # one test, deeper sweep
//	litmus -list                     # battery index
//	litmus -all -json                # machine-readable verdict matrix
//
// The exit status is nonzero when a sound configuration admitted an
// SC-forbidden outcome (or cyclic constraint graph), when the
// deliberately unsound NUS-alone configuration escaped every test, when
// any sweep cell failed outright (panic/timeout), or — under -fault
// with filter-breaking kinds — when the checker failed to flag a single
// sabotaged run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vbmo/internal/config"
	"vbmo/internal/exitcode"
	"vbmo/internal/fault"
	"vbmo/internal/litmus"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run the full battery on the standard configurations")
		testName = flag.String("test", "", "run one battery test by name (see -list)")
		cfgName  = flag.String("config", "", "restrict the sweep to one configuration")
		list     = flag.Bool("list", false, "list battery tests and configurations, then exit")
		runs     = flag.Int("runs", 1000, "perturbed executions per (test, config) cell")
		workers  = flag.Int("workers", 0, "worker pool size (1 = serial, 0 = one per GOMAXPROCS)")
		seed     = flag.Uint64("seed", 1, "base seed for the perturbation streams")
		jsonOut  = flag.Bool("json", false, "emit the verdict matrix as JSON instead of text")
		oracle   = flag.Bool("oracle", false, "also print each test's SC-allowed outcome set")
		cores    = flag.Int("cores", 0, "run every test on an SMP this wide, extra cores spinning (0 = each test's natural thread count)")
		quiet    = flag.Bool("q", false, "suppress per-cell progress lines")

		faultKinds  = flag.String("fault", "", "inject faults: comma-separated kinds (see internal/fault) or \"all\" (empty = off)")
		faultRate   = flag.Float64("fault-rate", 1.0, "per-opportunity fault probability (litmus programs are short; default every opportunity)")
		faultSeed   = flag.Uint64("fault-seed", 0, "fault RNG seed (0 = derive from -seed)")
		cellTimeout = flag.Duration("cell-timeout", 0, "per-cell wall-clock deadline (0 = none; nondeterministic)")
		retries     = flag.Int("retries", 0, "re-attempts for a failed sweep cell")
		resume      = flag.String("resume", "", "JSONL checkpoint journal; cells it already holds are replayed, not re-run")
	)
	flag.Parse()

	if *list {
		fmt.Println("battery tests:")
		for _, t := range litmus.Battery() {
			fmt.Printf("  %-10s %s\n", t.Name, t.Doc)
		}
		fmt.Println("configurations:")
		for _, c := range litmus.Configs() {
			kind := "sound"
			if !c.Sound {
				kind = "UNSOUND"
			}
			fmt.Printf("  %-10s %-8s %s\n", c.Name, kind, c.Machine.Name)
		}
		return
	}

	var tests []*litmus.Test
	switch {
	case *testName != "":
		t, ok := litmus.ByName(*testName)
		if !ok {
			names := make([]string, 0, len(litmus.Battery()))
			for _, t := range litmus.Battery() {
				names = append(names, t.Name)
			}
			fmt.Fprintf(os.Stderr, "unknown test %q; valid tests: %s\n",
				*testName, strings.Join(names, ", "))
			os.Exit(exitcode.Err)
		}
		tests = []*litmus.Test{t}
	case *all:
		tests = litmus.Battery()
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -all, -test NAME, or -list")
		os.Exit(exitcode.Err)
	}

	var cfgs []litmus.Config
	if *cfgName != "" {
		c, ok := litmus.ConfigByName(*cfgName)
		if !ok {
			names := make([]string, 0, len(litmus.Configs()))
			for _, c := range litmus.Configs() {
				names = append(names, c.Name)
			}
			fmt.Fprintf(os.Stderr, "unknown config %q; valid configs: %s\n",
				*cfgName, strings.Join(names, ", "))
			os.Exit(exitcode.Err)
		}
		cfgs = []litmus.Config{c}
	} else {
		cfgs = litmus.Configs()
	}

	if *oracle && !*jsonOut {
		for _, t := range tests {
			as := litmus.Allowed(t)
			fmt.Printf("%s — %s\n", t.Name, t.Doc)
			for _, key := range as.Keys() {
				fmt.Printf("  allowed: %s\n", key)
			}
		}
	}

	var fc *fault.Config
	if *faultKinds != "" {
		ks, err := fault.ParseKinds(*faultKinds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitcode.Err)
		}
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed ^ 0x9e3779b97f4a7c15
		}
		fc = &fault.Config{Kinds: ks, Rate: *faultRate, Seed: fseed}
	}

	if *cores < 0 || *cores > config.MaxCores {
		fmt.Fprintf(os.Stderr, "-cores must be between 0 and %d\n", config.MaxCores)
		os.Exit(exitcode.Err)
	}
	opts := litmus.SweepOptions{
		Tests: tests, Configs: cfgs,
		Runs: *runs, Workers: *workers, Seed: *seed, Cores: *cores,
		Fault: fc, Checkpoint: *resume, Retries: *retries, CellTimeout: *cellTimeout,
	}
	if !*jsonOut && !*quiet {
		opts.Progress = func(done, total int, v litmus.Verdict) {
			status := "ok"
			if v.Error != "" {
				status = "ERROR"
			} else if v.Sound && !v.Pass() {
				status = "FAIL"
			} else if !v.Sound && v.Caught() {
				status = "caught"
			}
			line := fmt.Sprintf("[%3d/%3d] %-10s × %-10s %d runs, %d outcomes, forbidden=%d cycles=%d incomplete=%d",
				done, total, v.Test, v.Config, v.Runs, len(v.Histogram),
				v.Forbidden, v.Cycles, v.Incomplete)
			if v.FaultInjected > 0 || v.FaultDropped > 0 || v.FaultSuppressed > 0 {
				line += fmt.Sprintf(" faults=%d det=%d miss=%d drop=%d supp=%d",
					v.FaultInjected, v.FaultDetected, v.FaultMissed,
					v.FaultDropped, v.FaultSuppressed)
			}
			fmt.Printf("%s  %s\n", line, status)
		}
	}

	start := time.Now()
	verdicts, err := litmus.Sweep(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitcode.Err)
	}
	sum := litmus.Summarize(verdicts)
	elapsed := time.Since(start)

	if *jsonOut {
		out := struct {
			Runs     int              `json:"runs"`
			Seed     uint64           `json:"seed"`
			Elapsed  float64          `json:"elapsed_sec"`
			Verdicts []litmus.Verdict `json:"verdicts"`
			Summary  litmus.Summary   `json:"summary"`
		}{*runs, *seed, elapsed.Seconds(), verdicts, sum}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitcode.Err)
		}
	} else {
		printMatrix(verdicts, tests, cfgs)
		fmt.Printf("\nsound configurations clean: %v", sum.SoundOK)
		if len(sum.FailedCells) > 0 {
			fmt.Printf("  (failed: %s)", strings.Join(sum.FailedCells, ", "))
		}
		fmt.Println()
		hasUnsound := false
		for _, c := range cfgs {
			if !c.Sound {
				hasUnsound = true
			}
		}
		if hasUnsound {
			fmt.Printf("unsound configuration caught: %v", sum.UnsoundCaught)
			if len(sum.CaughtBy) > 0 {
				fmt.Printf("  (by: %s)", strings.Join(sum.CaughtBy, ", "))
			}
			fmt.Println()
		}
		if fc != nil {
			var inj, det, miss, drop, supp uint64
			for _, v := range verdicts {
				inj += v.FaultInjected
				det += v.FaultDetected
				miss += v.FaultMissed
				drop += v.FaultDropped
				supp += v.FaultSuppressed
			}
			fmt.Printf("faults: injected=%d detected=%d missed=%d dropped=%d suppressed=%d\n",
				inj, det, miss, drop, supp)
		}
		fmt.Printf("[%s elapsed]\n", elapsed.Round(time.Millisecond))
	}

	// Exit-path audit: every failure mode maps to a nonzero exit.
	failed := false
	// Infrastructure failures (panic, timeout, retries exhausted) are
	// reported per-cell and fail the battery even when every completed
	// cell looks clean.
	if len(sum.Errors) > 0 {
		for _, e := range sum.Errors {
			fmt.Fprintf(os.Stderr, "ERROR %s\n", e)
		}
		failed = true
	}
	if fc.Enabled() && faultBreaksSoundness(fc.Kinds) {
		// Filter-breaking fault injection inverts the contract: the
		// sound configurations are being sabotaged, so success means the
		// checker FLAGGED sabotaged runs (forbidden outcome or cycle) —
		// a fully "clean" matrix means the corruption escaped.
		caught := 0
		for _, v := range verdicts {
			if v.Error == "" && v.Sound {
				caught += v.Forbidden + v.Cycles
			}
		}
		if caught == 0 {
			fmt.Fprintln(os.Stderr, "FAULT ESCAPE: filter-breaking fault injection produced no flagged run; the checker missed the sabotage")
			failed = true
		}
	} else if fc == nil {
		// A sound-config violation always fails. The catch requirement
		// on the unsound configuration is a battery-level contract: a
		// single test legitimately escapes (MP never catches NUS-alone),
		// so it is only enforced when the full battery ran.
		if !sum.SoundOK || (*all && *testName == "" && !sum.UnsoundCaught) {
			failed = true
		}
	}
	if failed {
		os.Exit(exitcode.Err)
	}
}

// faultBreaksSoundness reports whether any injected kind undermines the
// replay filters' soundness argument (suppressed signals, lost
// messages), as opposed to value corruptions replay is expected to
// repair or delays the windowing is expected to absorb.
func faultBreaksSoundness(kinds []fault.Kind) bool {
	for _, k := range kinds {
		switch k {
		case fault.DropSnoop, fault.DropFill,
			fault.SuppressNUS, fault.SuppressWindow, fault.SuppressRule3:
			return true
		}
	}
	return false
}

// printMatrix renders the verdict matrix as a test × config table. A
// sound cell shows ok/FAIL; the unsound column shows how many runs the
// checker caught (caught=N) or "escaped" when none did.
func printMatrix(vs []litmus.Verdict, tests []*litmus.Test, cfgs []litmus.Config) {
	byCell := make(map[string]litmus.Verdict, len(vs))
	for _, v := range vs {
		byCell[v.Test+"/"+v.Config] = v
	}
	fmt.Printf("\n%-10s", "")
	for _, c := range cfgs {
		fmt.Printf(" %-12s", c.Name)
	}
	fmt.Println()
	for _, t := range tests {
		fmt.Printf("%-10s", t.Name)
		for _, c := range cfgs {
			v := byCell[t.Name+"/"+c.Name]
			cell := "ok"
			switch {
			case v.Sound && !v.Pass():
				cell = fmt.Sprintf("FAIL(%d)", v.Forbidden+v.Cycles+v.Incomplete)
			case !v.Sound && v.Caught():
				cell = fmt.Sprintf("caught=%d", v.Forbidden+v.Cycles)
			case !v.Sound:
				cell = "escaped"
			}
			fmt.Printf(" %-12s", cell)
		}
		fmt.Println()
	}
}
