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
// The exit status is nonzero when any sweep cell failed outright
// (panic/timeout), when -fault sabotage dropped or suppressed filter
// inputs yet the checker flagged no run, and, on a battery that ran
// unsabotaged, when a sound configuration admitted an SC-forbidden
// outcome (or cyclic constraint graph) or the full battery let the
// deliberately unsound NUS-alone configuration escape every test.
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
		faultSeed   = flag.Uint64("fault-seed", 0, "fault RNG seed; each run mixes in its own seed")
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

	fc, err := fault.FromFlags(*faultKinds, *faultRate, *faultSeed, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitcode.Err)
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
	faults, flagged := litmus.Tally(verdicts)
	verdict := fc.Judge(faults, flagged)
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
		fmt.Println()
		litmus.WriteMatrix(os.Stdout, verdicts, sum, tests, cfgs)
		if fc != nil {
			fmt.Printf("faults: injected=%d detected=%d missed=%d dropped=%d suppressed=%d  verdict: %s\n",
				faults.Injected, faults.Detected, faults.Missed, faults.Dropped, faults.Suppressed, verdict)
		}
		fmt.Printf("[%s elapsed]\n", elapsed.Round(time.Millisecond))
	}

	for _, e := range sum.Errors {
		fmt.Fprintf(os.Stderr, "ERROR %s\n", e)
	}
	if verdict == fault.Escaped {
		fmt.Fprintln(os.Stderr, "FAULT ESCAPE: the fault plan dropped or suppressed filter inputs, yet the checker flagged no run")
	}
	if failed(sum, verdict, *all && *testName == "") {
		os.Exit(exitcode.Err)
	}
}

// failed is the battery's exit contract. A cell that did not run
// (panic, timeout, retries exhausted) fails it, and so does filter
// sabotage the checker missed. Value corruption and delays are
// informational. A battery that ran unsabotaged must keep every sound
// configuration clean and, when it is the full battery, catch every
// unsound one: one test alone may legitimately escape (MP never
// catches NUS-alone).
func failed(sum litmus.Summary, verdict fault.Verdict, full bool) bool {
	switch {
	case len(sum.Errors) > 0 || verdict == fault.Escaped:
		return true
	case verdict != fault.Unsabotaged:
		return false
	}
	return !sum.SoundOK || (full && !sum.UnsoundCaught)
}
