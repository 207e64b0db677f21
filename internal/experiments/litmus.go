// The litmus experiment: run the memory-ordering battery across the
// sweep configurations and print the verdict matrix. This is the
// soundness companion to the performance figures — Figure 5 shows the
// replay machines are fast, this table shows they are correct (and that
// the deliberately mis-composed NUS-alone filter of §3.3 is not).

package experiments

import (
	"fmt"
	"io"
	"strings"

	"vbmo/internal/litmus"
)

// LitmusMatrix runs the battery sweep and writes the per-config verdict
// matrix. It returns the battery-level summary so callers (and tests)
// can assert on it.
func LitmusMatrix(w io.Writer, cfg Config) litmus.Summary {
	runs := cfg.LitmusRuns
	if runs <= 0 {
		runs = 300
	}
	tests := litmus.Battery()
	cols := litmus.Configs()
	fmt.Fprintf(w, "\n== Litmus battery: %d tests × %d configs × %d perturbed runs ==\n",
		len(tests), len(cols), runs)
	verdicts, err := litmus.Sweep(litmus.SweepOptions{
		Tests: tests, Configs: cols,
		Runs: runs, Workers: cfg.Workers, Seed: cfg.Seed,
	})
	if err != nil {
		// No checkpoint is configured here, so this cannot fire today;
		// report it as an infrastructure failure if it ever does.
		fmt.Fprintf(w, "litmus sweep error: %v\n", err)
		return litmus.Summary{Errors: []string{err.Error()}}
	}
	byCell := make(map[string]litmus.Verdict, len(verdicts))
	for _, v := range verdicts {
		byCell[v.Test+"/"+v.Config] = v
	}

	fmt.Fprintf(w, "%-10s", "")
	for _, c := range cols {
		fmt.Fprintf(w, " %-10s", c.Name)
	}
	fmt.Fprintln(w)
	for _, t := range tests {
		fmt.Fprintf(w, "%-10s", t.Name)
		for _, c := range cols {
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
			fmt.Fprintf(w, " %-10s", cell)
		}
		fmt.Fprintln(w)
	}

	sum := litmus.Summarize(verdicts)
	fmt.Fprintf(w, "sound configurations clean: %v", sum.SoundOK)
	if len(sum.FailedCells) > 0 {
		fmt.Fprintf(w, "  (failed: %s)", strings.Join(sum.FailedCells, ", "))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "unsound configuration caught: %v", sum.UnsoundCaught)
	if len(sum.CaughtBy) > 0 {
		fmt.Fprintf(w, "  (by: %s)", strings.Join(sum.CaughtBy, ", "))
	}
	fmt.Fprintln(w)
	return sum
}
