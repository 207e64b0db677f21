package litmus

import (
	"runtime"
	"testing"
)

// Per-run heap budget of a 16-core RunCell once its machine exists:
// each later run resets that machine (system.Reset). Measured with Go
// 1.24 over the battery × the six configurations: at most 120
// allocations and 22.6 KB per run, 114.0 allocations on average. Each
// run compiles its test once; CompileOn sizes the per-core initial
// states once and the builder keeps its labels in a slice. The bounds
// leave ~15% headroom for the per-run maps (image, bus, shadow), whose
// allocation pattern varies across Go releases; a run that rebuilt its
// machine would cost ~990 allocations and 2.3 MB.
const (
	maxAllocsPerRun = 138
	maxBytesPerRun  = 26000
)

// cellCost returns the heap allocations and bytes of one 16-core
// RunCell call of the given run count.
func cellCost(test *Test, cfg Config, as *AllowedSet, runs int) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RunCell(test, cfg, as, runs, CellSeed(1, 0, 0), nil, 16)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestRunCellAllocs gates the per-run allocations of every battery
// cell at 16 cores: the cost of runs 2..9 of a cell, net of the first
// run, which builds the machine. Allocation counts are exact, so the
// gate is noise-free. -v logs the largest and the mean cost per run.
func TestRunCellAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short")
	}
	const extra = 8
	var maxAllocs, maxBytes, sumAllocs, cells uint64
	for _, test := range Battery() {
		as := Allowed(test)
		for _, cfg := range Configs() {
			a1, b1 := cellCost(test, cfg, as, 1)
			a, b := cellCost(test, cfg, as, 1+extra)
			allocs, bytes := (a-a1)/extra, (b-b1)/extra
			if allocs > maxAllocsPerRun || bytes > maxBytesPerRun {
				t.Errorf("%s/%s: %d allocations, %d bytes per reused run (bound %d, %d)",
					test.Name, cfg.Name, allocs, bytes, maxAllocsPerRun, maxBytesPerRun)
			}
			maxAllocs, maxBytes = max(maxAllocs, allocs), max(maxBytes, bytes)
			sumAllocs += a - a1
			cells++
		}
	}
	t.Logf("per reused run: at most %d allocations and %d bytes; %.1f allocations on average",
		maxAllocs, maxBytes, float64(sumAllocs)/float64(cells*extra))
}
