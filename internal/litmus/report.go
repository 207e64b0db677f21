// The battery report: the verdict matrix as the litmus CLI and the
// litmus experiment print it, and the fault accounting a sweep's
// judgement weighs.

package litmus

import (
	"fmt"
	"io"
	"strings"

	"vbmo/internal/fault"
)

// WriteMatrix writes the verdict matrix vs of a sweep over tests ×
// cfgs, one row per test, then sum's summary lines. A sound cell reads
// ok, or FAIL(n) with its forbidden, cyclic and incomplete runs; an
// unsound cell reads caught=N, or escaped when no run was flagged. The
// "unsound configuration caught" line is written only when cfgs has an
// unsound column.
func WriteMatrix(w io.Writer, vs []Verdict, sum Summary, tests []*Test, cfgs []Config) {
	byCell := make(map[string]Verdict, len(vs))
	for _, v := range vs {
		byCell[v.Test+"/"+v.Config] = v
	}
	fmt.Fprintf(w, "%-10s", "")
	unsound := false
	for _, c := range cfgs {
		fmt.Fprintf(w, " %-10s", c.Name)
		unsound = unsound || !c.Sound
	}
	fmt.Fprintln(w)
	for _, t := range tests {
		fmt.Fprintf(w, "%-10s", t.Name)
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
			fmt.Fprintf(w, " %-10s", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "sound configurations clean: %v", sum.SoundOK)
	if len(sum.FailedCells) > 0 {
		fmt.Fprintf(w, "  (failed: %s)", strings.Join(sum.FailedCells, ", "))
	}
	fmt.Fprintln(w)
	if unsound {
		fmt.Fprintf(w, "unsound configuration caught: %v", sum.UnsoundCaught)
		if len(sum.CaughtBy) > 0 {
			fmt.Fprintf(w, "  (by: %s)", strings.Join(sum.CaughtBy, ", "))
		}
		fmt.Fprintln(w)
	}
}

// Tally sums a sweep's fault accounting over its cells (Vacated and
// Benign stay zero: a Verdict does not keep them) and counts the runs
// of sound cells the checker flagged, a forbidden outcome or a graph
// cycle: the two figures fault.Config.Judge weighs.
func Tally(vs []Verdict) (st fault.Stats, flagged int) {
	for _, v := range vs {
		st.Injected += v.FaultInjected
		st.Detected += v.FaultDetected
		st.Missed += v.FaultMissed
		st.Dropped += v.FaultDropped
		st.Delayed += v.FaultDelayed
		st.Suppressed += v.FaultSuppressed
		if v.Error == "" && v.Sound {
			flagged += v.Forbidden + v.Cycles
		}
	}
	return st, flagged
}
