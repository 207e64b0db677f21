package experiments

import (
	"fmt"
	"io"

	"vbmo/internal/energy"
	"vbmo/internal/stats"
)

// Figure5 prints the §5.1 performance comparison: IPC of each replay
// configuration normalized to the baseline (paper Figure 5), for the
// uniprocessor and multiprocessor suites. MP rows carry 95% confidence
// half-widths on the normalized value.
func Figure5(w io.Writer, m *Matrix) {
	uni, mp := m.workloadNames()
	cols := MachineNames[1:] // normalized to baseline
	section := func(title string, names []string, mpSection bool) {
		writeHeader(w, title, append([]string{"base-IPC"}, cols...))
		geo := make(map[string][]float64)
		for _, work := range names {
			base := m.Get("baseline", work)
			if base == nil || base.IPC.N() == 0 {
				continue
			}
			fmt.Fprintf(w, "%-12s %15.3f", work, base.IPC.Mean())
			for _, mc := range cols {
				pt := m.Get(mc, work)
				if pt == nil || pt.IPC.N() == 0 {
					fmt.Fprintf(w, " %15s", "-")
					continue
				}
				norm := pt.IPC.Mean() / base.IPC.Mean()
				geo[mc] = append(geo[mc], norm)
				if mpSection && m.Cfg.Samples > 1 {
					ci := pt.IPC.CI95() / base.IPC.Mean()
					fmt.Fprintf(w, "   %6.3f±%5.3f", norm, ci)
				} else {
					fmt.Fprintf(w, " %15.3f", norm)
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-12s %15s", "geomean", "")
		for _, mc := range cols {
			fmt.Fprintf(w, " %15.3f", stats.GeoMean(geo[mc]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "=== Figure 5: value-based replay performance, relative to baseline ===")
	section("-- uniprocessor --", uni, false)
	if len(mp) > 0 {
		section(fmt.Sprintf("-- %d-processor (%d samples) --", m.Cfg.MPCores, m.Cfg.Samples), mp, true)
	}
}

// Figure6 prints the extra L1 data-cache bandwidth consumed by replays
// (paper Figure 6), as a percentage of the baseline machine's total
// accesses, split into the RAW-needed (no-unresolved-store) segment and
// the consistency-only remainder.
func Figure6(w io.Writer, m *Matrix) {
	uni, mp := m.workloadNames()
	fmt.Fprintln(w, "=== Figure 6: increased data cache bandwidth due to replay ===")
	fmt.Fprintln(w, "(each cell: total%  [raw-needed% + consistency-only%])")
	cols := MachineNames[1:]
	section := func(title string, names []string) {
		writeHeader(w, title, cols)
		avg := make(map[string][]float64)
		for _, work := range names {
			base := m.Get("baseline", work)
			if base == nil || base.L1DTotal.Mean() == 0 {
				continue
			}
			fmt.Fprintf(w, "%-12s", work)
			for _, mc := range cols {
				pt := m.Get(mc, work)
				if pt == nil || pt.ReplayAll.N() == 0 {
					fmt.Fprintf(w, " %17s", "-")
					continue
				}
				total := 100 * pt.ReplayAll.Mean() / base.L1DTotal.Mean()
				nus := 100 * pt.ReplayNUS.Mean() / base.L1DTotal.Mean()
				avg[mc] = append(avg[mc], total)
				fmt.Fprintf(w, " %5.1f%%[%4.1f+%4.1f]", total, nus, total-nus)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-12s", "mean")
		for _, mc := range cols {
			fmt.Fprintf(w, " %6.1f%%%10s", stats.Mean(avg[mc]), "")
		}
		fmt.Fprintln(w)
	}
	section("-- uniprocessor --", uni)
	if len(mp) > 0 {
		section("-- multiprocessor --", mp)
	}

	// §5.1 headline scalar: replays per committed instruction for the
	// best filter configuration.
	var rep, com float64
	for _, work := range append(uni, mp...) {
		pt := m.Get("no-recent-snoop", work)
		if pt != nil {
			rep += pt.Replays.Mean()
			com += pt.Committed.Mean()
		}
	}
	if com > 0 {
		fmt.Fprintf(w, "\nreplays per committed instruction (no-recent-snoop/NUS): %.4f (paper: 0.02)\n", rep/com)
	}
}

// Figure7 prints average reorder-buffer occupancy per configuration
// (paper Figure 7).
func Figure7(w io.Writer, m *Matrix) {
	uni, mp := m.workloadNames()
	fmt.Fprintln(w, "=== Figure 7: average reorder buffer utilization ===")
	cols := MachineNames
	section := func(title string, names []string) {
		writeHeader(w, title, cols)
		for _, work := range names {
			fmt.Fprintf(w, "%-12s", work)
			for _, mc := range cols {
				pt := m.Get(mc, work)
				if pt == nil || pt.ROBOccupancy.N() == 0 {
					fmt.Fprintf(w, " %15s", "-")
					continue
				}
				fmt.Fprintf(w, " %15.1f", pt.ROBOccupancy.Mean())
			}
			fmt.Fprintln(w)
		}
	}
	section("-- uniprocessor --", uni)
	if len(mp) > 0 {
		section("-- multiprocessor --", mp)
	}
}

// Figure8 prints the §5.2 comparison: the best replay configuration
// (no-recent-snoop + no-unresolved-store) against baselines whose
// associative load queues are constrained to 16 and 32 entries; values
// are replay IPC divided by constrained-baseline IPC (>1 means replay
// is faster). The error is non-nil only when cfg.Checkpoint names an
// unusable journal. Figure 8 may share the §5.1 matrix's journal:
// cells are keyed by content (cachekey.Sim), so its no-recent-snoop
// cells replay the matrix's records and only the two constrained
// baselines run.
func Figure8(w io.Writer, cfg Config) error {
	machines := []string{"no-recent-snoop", "baseline-lq32", "baseline-lq16"}
	m, err := Run(cfg, machines)
	if err != nil {
		return err
	}
	uni, mp := m.workloadNames()
	fmt.Fprintln(w, "=== Figure 8: replay speedup over constrained load queue sizes ===")
	cols := []string{"vs lq32", "vs lq16"}
	section := func(title string, names []string) {
		writeHeader(w, title, cols)
		var g32, g16 []float64
		var max16 float64
		for _, work := range names {
			rep := m.Get("no-recent-snoop", work)
			b32 := m.Get("baseline-lq32", work)
			b16 := m.Get("baseline-lq16", work)
			if rep == nil || b32.IPC.Mean() == 0 || b16.IPC.Mean() == 0 {
				continue
			}
			s32 := rep.IPC.Mean() / b32.IPC.Mean()
			s16 := rep.IPC.Mean() / b16.IPC.Mean()
			g32 = append(g32, s32)
			g16 = append(g16, s16)
			if s16 > max16 {
				max16 = s16
			}
			fmt.Fprintf(w, "%-12s %15.3f %15.3f\n", work, s32, s16)
		}
		fmt.Fprintf(w, "%-12s %15.3f %15.3f   (max vs lq16: %.3f)\n",
			"geomean", stats.GeoMean(g32), stats.GeoMean(g16), max16)
	}
	section("-- uniprocessor --", uni)
	if len(mp) > 0 {
		section("-- multiprocessor --", mp)
	}
	fmt.Fprintln(w, "(paper: replay ≈ +1.0% vs 32-entry; avg +8%, max +34% vs 16-entry)")
	return nil
}

// SquashStats prints the §5.1 squash-elimination statistics: the
// fraction of baseline RAW and consistency squashes that value-based
// replay avoids thanks to store value locality.
func SquashStats(w io.Writer, m *Matrix) {
	uni, mp := m.workloadNames()
	fmt.Fprintln(w, "=== §5.1 squash elimination (baseline squashes vs replay squashes) ===")
	row := func(work string) {
		base := m.Get("baseline", work)
		rep := m.Get("replay-all", work)
		if base == nil || rep == nil {
			return
		}
		fmt.Fprintf(w, "%-12s RAW: %6.0f -> %6.0f   consistency: %6.0f -> %6.0f\n",
			work, base.RAWSquash.Mean(), rep.RAWSquash.Mean(),
			base.ConsSquash.Mean(), rep.ConsSquash.Mean())
	}
	var bR, rR, bC, rC float64
	for _, work := range append(append([]string{}, uni...), mp...) {
		row(work)
		if base := m.Get("baseline", work); base != nil {
			bR += base.RAWSquash.Mean()
			bC += base.ConsSquash.Mean()
		}
		if rep := m.Get("replay-all", work); rep != nil {
			rR += rep.RAWSquash.Mean()
			rC += rep.ConsSquash.Mean()
		}
	}
	if bR > 0 {
		fmt.Fprintf(w, "RAW squashes eliminated: %.0f%% (paper: 59%%)\n", 100*(1-rR/bR))
	}
	if bC > 0 {
		fmt.Fprintf(w, "consistency squashes eliminated: %.0f%% (paper: 95%%)\n", 100*(1-rC/bC))
	}
}

// Power prints the §5.3 power-model comparison using measured replay
// and load-queue-search counts.
func Power(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "=== §5.3 power model ===")
	uni, mp := m.workloadNames()
	var replays, committed, searches float64
	for _, work := range append(append([]string{}, uni...), mp...) {
		if pt := m.Get("no-recent-snoop", work); pt != nil {
			replays += pt.Replays.Mean()
			committed += pt.Committed.Mean()
		}
		if pt := m.Get("baseline", work); pt != nil {
			searches += pt.LQSearches.Mean()
		}
	}
	pm := energy.DefaultPowerModel(128, energy.PortConfig{Read: 3, Write: 2})
	fmt.Fprint(w, pm.Report(uint64(replays), uint64(searches), uint64(committed)))
	if committed > 0 {
		fmt.Fprintf(w, "measured replay rate: %.4f/instr; break-even at %.4f/instr (searches %.3f/instr)\n",
			replays/committed, pm.BreakEvenReplayRate(searches/committed), searches/committed)
	}
}

// Tables prints Table 1 and Table 2.
func Tables(w io.Writer) {
	fmt.Fprintln(w, energy.FormatTable1())
	fmt.Fprintln(w, energy.FormatTable2())
	mdl := energy.DefaultCAMModel()
	latErr, enErr := mdl.ModelError()
	fmt.Fprintf(w, "fitted CAM model mean error: latency %.1f%%, energy %.1f%%\n",
		latErr*100, enErr*100)
}
