package system

import (
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/workload"
)

// steadyAllocsPerInstr builds the named machine on the given workload,
// warms it past cold misses and workload generation, then measures
// allocations per committed instruction over repeated Advance windows.
func steadyAllocsPerInstr(t *testing.T, machine string, window uint64) float64 {
	t.Helper()
	mc, ok := config.ByName(machine)
	if !ok {
		t.Fatalf("unknown machine %q", machine)
	}
	var work workload.Params
	for _, w := range workload.Catalog() {
		if w.Name == "gzip" {
			work = w
		}
	}
	opt := Options{Cores: 1, Seed: 42, DMAInterval: 4000, DMABurst: 2}
	s := New(mc, work, opt)
	s.Advance(10000, opt) // warmup: caches, predictors, pool slabs

	base := s.Cores[0].Stats.Committed
	runs := 0
	allocs := testing.AllocsPerRun(5, func() {
		runs++
		s.Advance(base+uint64(runs)*window, opt)
	})
	return allocs / float64(window)
}

// TestSteadyStateAllocs guards the tentpole claim of this layer: once
// warmed, the cycle loop — ring-buffered ROB/fetch queue, slab-pooled
// entries, preallocated side lists — commits instructions without
// heap-allocating. The bound is deliberately far below the pre-ring
// figure (~0.05 allocs/instr) so a reintroduced per-instruction or
// per-window allocation fails loudly, while the rare residual (a cache
// set touched for the first time, an MSHR growth) stays within it.
// Besides the baseline and the paper's filtered replay machine, it
// covers the machines whose simple-predictor, value-prediction and
// two-level store-queue paths wake parked loads.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short")
	}
	for _, machine := range []string{"baseline", "no-recent-snoop", "replay-all", "replay-vpred", "baseline-hiersq"} {
		got := steadyAllocsPerInstr(t, machine, 4000)
		t.Logf("%s: %.5f allocs/committed instr", machine, got)
		if got > 0.005 {
			t.Errorf("%s: steady-state allocations regressed: %.5f allocs/instr (want <= 0.005)",
				machine, got)
		}
	}
}
