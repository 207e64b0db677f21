// The faults experiment: the robustness companion to the litmus
// battery. Two matrices, two claims. First, value corruption — bit
// flips injected into premature load values and cache fills — must be
// detected by commit-time replay on the replay-all machine (the paper's
// soundness argument: every premature load is re-executed, so a wrong
// value cannot commit). Filtered machines replay only flagged loads, so
// corruptions riding unflagged loads escape there; those rows are
// printed as the measured cost of filtering, not asserted. Second,
// filter sabotage — suppressed window signals, dropped coherence
// messages — must surface as SC violations or constraint-graph cycles
// in the litmus battery: a sabotaged filter is an unsound filter, and
// the checker has to say so.

package experiments

import (
	"fmt"
	"io"

	"vbmo/internal/fault"
	"vbmo/internal/litmus"
	"vbmo/internal/par"
	"vbmo/internal/system"
	"vbmo/internal/workload"
)

// faultValueRate is the per-opportunity corruption probability for the
// value matrix: high enough to land hundreds of injections in a
// default-budget run, low enough that the run still resembles the
// workload.
const faultValueRate = 0.005

// FaultSummary aggregates the faults experiment for callers and tests.
type FaultSummary struct {
	// Value-corruption totals on the replay-all rows (the asserted ones).
	Injected, Detected, Missed, Vacated, Benign uint64
	// ValueOK: replay-all saw corruptions and let none commit undetected.
	ValueOK bool
	// SuppressOK: every sabotage kind that took filter inputs away was
	// flagged by the SC oracle or constraint-graph checker at least once
	// (fault.Config.Judge).
	SuppressOK bool
	// Escaped lists sabotage kinds that interfered but were never flagged.
	Escaped []string
}

// OK reports whether both asserted claims held.
func (s FaultSummary) OK() bool { return s.ValueOK && s.SuppressOK }

// faultValueRow is one machine's aggregated corruption ledger.
type faultValueRow struct {
	label    string
	asserted bool // Missed == 0 is a hard claim on this row
	stats    fault.Stats
	lat      fault.Hist
}

// FaultMatrix runs both fault-injection matrices and writes them to w.
func FaultMatrix(w io.Writer, cfg Config) FaultSummary {
	sum := FaultSummary{}

	// ---- Matrix 1: value corruption vs. replay detection ----
	// Rows: replay-all (asserted, uni + MP), then two informational
	// contrasts — a filtered machine (corruptions on unflagged loads
	// escape) and the baseline (no replay at all, everything escapes).
	var uni []workload.Params
	var mp *workload.Params
	for _, wk := range cfg.workloadSet() {
		wk := wk
		if wk.Multi {
			if mp == nil {
				mp = &wk
			}
		} else {
			uni = append(uni, wk)
		}
	}
	type valueCell struct {
		row   int
		mc    string
		work  workload.Params
		cores int
		instr uint64
	}
	rows := []faultValueRow{
		{label: "replay-all", asserted: true},
		{label: "replay-all (MP)", asserted: true},
		{label: "no-recent-snoop", asserted: false},
		{label: "baseline", asserted: false},
	}
	var cells []valueCell
	for _, wk := range uni {
		cells = append(cells, valueCell{row: 0, mc: "replay-all", work: wk, cores: 1, instr: cfg.UniInstr})
		cells = append(cells, valueCell{row: 2, mc: "no-recent-snoop", work: wk, cores: 1, instr: cfg.UniInstr})
		cells = append(cells, valueCell{row: 3, mc: "baseline", work: wk, cores: 1, instr: cfg.UniInstr})
	}
	if mp != nil && cfg.MPCores > 1 {
		cells = append(cells, valueCell{row: 1, mc: "replay-all", work: *mp, cores: cfg.MPCores, instr: cfg.MPInstr})
	}
	fmt.Fprintf(w, "\n== Fault injection: value corruption vs. replay detection (rate %g) ==\n", faultValueRate)

	type valueObs struct {
		stats fault.Stats
		lat   fault.Hist
	}
	obs := make([]valueObs, len(cells))
	par.Run(cfg.Workers, len(cells), func(i int) {
		c := cells[i]
		seed := cfg.Seed + uint64(i)*7919
		opt := system.Options{
			Cores: c.cores, Seed: seed,
			DMAInterval: 4000, DMABurst: 2,
			Fault: &fault.Config{
				Kinds: []fault.Kind{fault.LoadValue, fault.CacheData},
				Rate:  faultValueRate,
				Seed:  seed ^ 0x9e3779b97f4a7c15,
			},
		}
		s := system.New(machineFor(c.mc), c.work, opt)
		s.Run(c.instr, opt)
		obs[i].stats = s.Faults.Stats
		obs[i].lat = s.Faults.Lat
	})
	// Fold in canonical cell order so the printed matrix is independent
	// of worker scheduling.
	for i, c := range cells {
		r := &rows[c.row]
		st := &obs[i].stats
		r.stats.Injected += st.Injected
		r.stats.Detected += st.Detected
		r.stats.Missed += st.Missed
		r.stats.Vacated += st.Vacated
		r.stats.Benign += st.Benign
		r.lat.Merge(obs[i].lat)
	}

	fmt.Fprintf(w, "%-18s %9s %9s %7s %8s %7s  %s\n",
		"machine", "injected", "detected", "missed", "vacated", "benign", "verdict")
	sum.ValueOK = true
	sawAsserted := false
	for _, r := range rows {
		if r.stats.Injected == 0 && !r.asserted {
			continue
		}
		verdict := "informational (filtered/no replay: misses expected)"
		if r.asserted {
			sawAsserted = true
			sum.Injected += r.stats.Injected
			sum.Detected += r.stats.Detected
			sum.Missed += r.stats.Missed
			sum.Vacated += r.stats.Vacated
			sum.Benign += r.stats.Benign
			if r.stats.Missed == 0 && r.stats.Injected > 0 {
				verdict = "DETECTED-ALL"
			} else {
				verdict = fmt.Sprintf("MISSED %d", r.stats.Missed)
				sum.ValueOK = false
			}
		}
		fmt.Fprintf(w, "%-18s %9d %9d %7d %8d %7d  %s\n",
			r.label, r.stats.Injected, r.stats.Detected, r.stats.Missed,
			r.stats.Vacated, r.stats.Benign, verdict)
		if r.asserted && r.stats.Detected > 0 {
			fmt.Fprintf(w, "%-18s detection latency: %s\n", "", r.lat.String())
		}
	}
	if !sawAsserted {
		sum.ValueOK = false
	}

	// ---- Matrix 2: filter sabotage vs. the checker ----
	// Each kind runs the filtered sound configurations through the
	// litmus battery at rate 1.0, and fault.Config.Judge gives the
	// verdict: a drop or suppression that took inputs away must produce
	// flagged runs. Delays are informational because they model broken
	// notification timing, not a broken filter rule, though the checker
	// does flag some of their runs. suppress-nus never interferes: the
	// battery's programs resolve store addresses before younger loads
	// issue, so no NUS flag arises to suppress.
	runs := cfg.LitmusRuns
	if runs <= 0 {
		runs = 300
	}
	kinds := []fault.Kind{fault.SuppressWindow, fault.SuppressNUS, fault.DropSnoop,
		fault.DropFill, fault.DelaySnoop, fault.DelayFill}
	var tests []*litmus.Test
	for _, name := range []string{"SB", "MP"} {
		if t, ok := litmus.ByName(name); ok {
			tests = append(tests, t)
		}
	}
	var cols []litmus.Config
	for _, c := range litmus.Configs() {
		if c.Sound && (c.Name == "nrm+nus" || c.Name == "nrs+nus") {
			cols = append(cols, c)
		}
	}
	fmt.Fprintf(w, "\n== Fault injection: filter sabotage vs. checker (%d tests × %d filtered configs × %d runs) ==\n",
		len(tests), len(cols), runs)
	fmt.Fprintf(w, "%-16s %12s %8s  %s\n", "kind", "interference", "flagged", "verdict")
	sum.SuppressOK = true
	for _, kind := range kinds {
		fc := &fault.Config{
			Kinds: []fault.Kind{kind},
			Rate:  1.0,
			Seed:  cfg.Seed ^ 0x9e3779b97f4a7c15 ^ uint64(kind)<<32,
		}
		verdicts, err := litmus.Sweep(litmus.SweepOptions{
			Tests: tests, Configs: cols,
			Runs: runs, Workers: cfg.Workers, Seed: cfg.Seed, Fault: fc,
		})
		if err != nil {
			// No checkpoint is configured here; treat a sweep that cannot
			// run as a failed sabotage assertion rather than a panic.
			fmt.Fprintf(w, "%-16s sweep error: %v\n", kind.String(), err)
			sum.SuppressOK = false
			sum.Escaped = append(sum.Escaped, kind.String())
			continue
		}
		st, flagged := litmus.Tally(verdicts)
		verdict := fc.Judge(st, flagged)
		if verdict == fault.Escaped {
			sum.SuppressOK = false
			sum.Escaped = append(sum.Escaped, kind.String())
		}
		fmt.Fprintf(w, "%-16s %12d %8d  %s\n", kind.String(), st.Dropped+st.Delayed+st.Suppressed, flagged, verdict)
	}

	fmt.Fprintf(w, "value corruption contained: %v   filter sabotage flagged: %v\n",
		sum.ValueOK, sum.SuppressOK)
	return sum
}
