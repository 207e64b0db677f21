// The litmus experiment: run the memory-ordering battery across the
// sweep configurations and print the verdict matrix. This is the
// soundness companion to the performance figures — Figure 5 shows the
// replay machines are fast, this table shows they are correct (and that
// the deliberately mis-composed NUS-alone filter of §3.3 is not).

package experiments

import (
	"fmt"
	"io"

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
	sum := litmus.Summarize(verdicts)
	litmus.WriteMatrix(w, verdicts, sum, tests, cols)
	return sum
}
