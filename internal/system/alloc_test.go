package system

import (
	"runtime"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/prog"
	"vbmo/internal/workload"
)

// steadyAllocsPerInstr builds the named machine on the named workload,
// warms it past cold misses and workload generation, then measures
// allocations and heap bytes per committed instruction over repeated
// Advance windows.
func steadyAllocsPerInstr(t *testing.T, machine, work string, window uint64) (allocs, bytes float64) {
	t.Helper()
	mc, ok := config.ByName(machine)
	if !ok {
		t.Fatalf("unknown machine %q", machine)
	}
	opt := Options{Cores: 1, Seed: 42, DMAInterval: 4000, DMABurst: 2}
	s := New(mc, mustWork(t, work), opt)
	s.Advance(10000, opt) // warmup: caches, predictors, pool slabs

	base := s.Cores[0].Stats.Committed
	runs := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs = testing.AllocsPerRun(5, func() {
		runs++
		s.Advance(base+uint64(runs)*window, opt)
	})
	runtime.ReadMemStats(&m1)
	committed := s.Cores[0].Stats.Committed - base
	return allocs / float64(window), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(committed)
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
// two-level store-queue paths wake parked loads, and every associative
// load-queue mode, with and without its Bloom filter. The baseline also
// runs the latency-bound spin workload, whose sparse image overlay once
// allocated 0.037 times and 186 bytes per instruction (DESIGN.md §14).
// Heap bytes per instruction are held to 80 on every cell.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short")
	}
	type cell struct{ machine, work string }
	cells := []cell{{"baseline", "spin"}}
	for _, machine := range []string{"baseline", "no-recent-snoop", "replay-all", "replay-vpred", "baseline-hiersq",
		"baseline-bloom", "baseline-insulated", "baseline-hybrid"} {
		cells = append(cells, cell{machine, "gzip"})
	}
	for _, c := range cells {
		allocs, bytes := steadyAllocsPerInstr(t, c.machine, c.work, 4000)
		t.Logf("%s/%s: %.5f allocs, %.1f bytes per committed instr", c.machine, c.work, allocs, bytes)
		if allocs > 0.005 {
			t.Errorf("%s/%s: steady-state allocations regressed: %.5f allocs/instr (want <= 0.005)",
				c.machine, c.work, allocs)
		}
		if bytes > 80 {
			t.Errorf("%s/%s: steady-state heap bytes regressed: %.1f bytes/instr (want <= 80)",
				c.machine, c.work, bytes)
		}
	}
}

// TestResetAllocs: a Reset keeps the machine's storage (DESIGN.md §17),
// the Bloom filters of the load queue and the two-level store queue
// included, so resetting a machine with either filter allocates exactly
// what resetting the baseline does: only the small per-run helpers
// every build makes afresh.
func TestResetAllocs(t *testing.T) {
	work := mustWork(t, "gzip")
	opt := Options{Cores: 1, Seed: 42}
	program := workload.Generate(work, opt.Seed)
	inits := []prog.ArchState{workload.InitState(work, 0, opt.Seed)}
	resetAllocs := func(machine string) float64 {
		mc, _ := config.ByName(machine)
		s := NewCustom(mc, program, inits, opt)
		s.Advance(3000, opt)
		return testing.AllocsPerRun(10, func() { s.Reset(program, inits, opt) })
	}
	want := resetAllocs("baseline")
	t.Logf("baseline: %.0f allocs per Reset", want)
	for _, machine := range []string{"baseline-bloom", "baseline-hiersq"} {
		if got := resetAllocs(machine); got != want {
			t.Errorf("%s: %.0f allocs per Reset, baseline %.0f", machine, got, want)
		}
	}
}

// TestBuildBytes bounds the heap bytes of one fresh 16-core build of
// baseline on ocean, workload generation included: the figure every
// §5.1 MP cell, farm matrix cell and 16-core litmus cell pays before
// its first cycle (DESIGN.md §23, §25). Pointer-free cache set tables
// took it from 12.85 MB to 6.9 MB; packed predictor tables without BTB
// targets and record-free calibration took it to 5.05 MB. Entry slabs
// and cache set tables are most of the rest.
func TestBuildBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short")
	}
	mc, _ := config.ByName("baseline")
	work := mustWork(t, "ocean")
	opt := Options{Cores: 16, Seed: 1}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := New(mc, work, opt)
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(s)
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	t.Logf("16-core baseline/ocean build: %.2f MB", mb)
	if mb > 6 {
		t.Errorf("a fresh 16-core build allocated %.2f MB (want <= 6)", mb)
	}
}
