package system

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"vbmo/internal/config"
)

// checkerRun is the checker's cost configuration: no-recent-snoop on
// jbb-mp, 16 cores, 20,000 instructions per core, seed 3, with DMA
// every 4000 cycles in bursts of 2, as vbrbench's verify16 runs it,
// tracked when track is set. It returns the machine and the cost of its
// run window.
func checkerRun(tb testing.TB, track bool) (*System, window) {
	tb.Helper()
	mc, ok := config.ByName("no-recent-snoop")
	if !ok {
		tb.Fatal("unknown machine no-recent-snoop")
	}
	opt := Options{Cores: 16, Seed: 3, DMAInterval: 4000, DMABurst: 2, TrackConsistency: track}
	s := New(mc, mustWork(tb, "jbb-mp"), opt)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	s.Advance(20_000, opt)
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	return s, window{m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, took}
}

// window is the cost of one run window: its allocations, its bytes and
// its wall time.
type window struct {
	mallocs, bytes uint64
	took           time.Duration
}

// committed sums the cores' committed instructions.
func committed(s *System) uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.Stats.Committed
	}
	return n
}

// TestConsistencyCost bounds the exact allocation cost of consistency
// tracking and checking on the cost configuration: allocations and
// bytes per committed instruction of the tracked window, and per node
// of CheckSC. The map-based checker that the flat one (DESIGN.md §19)
// replaced measured 0.1007 allocations and 335.2 bytes per committed
// instruction, and 1.555 allocations and 661 bytes per node; the flat
// one measures 0.00603, 53.1, 0.00031 and 68.3. Each bound sits about
// 15% above the flat checker's measurement. Recording each op as a
// 24-byte record instead of a 56-byte Op (DESIGN.md §30) took the
// window to 0.00595 allocations and 41.2 bytes per instruction, and
// its bytes bound from 61 to 47.
func TestConsistencyCost(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short")
	}
	s, w := checkerRun(t, true)
	n := float64(committed(s))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, g := s.CheckSC()
	runtime.ReadMemStats(&m1)
	nodes := float64(g.Nodes())
	costs := []struct {
		name  string
		got   float64
		bound float64
	}{
		{"window allocs/instr", float64(w.mallocs) / n, 0.0069},
		{"window bytes/instr", float64(w.bytes) / n, 47},
		{"CheckSC allocs/node", float64(m1.Mallocs-m0.Mallocs) / nodes, 0.00036},
		{"CheckSC bytes/node", float64(m1.TotalAlloc-m0.TotalAlloc) / nodes, 79},
	}
	for _, c := range costs {
		t.Logf("%s: %.4g (bound %g)", c.name, c.got, c.bound)
		if c.got > c.bound {
			t.Errorf("%s = %.4f, bound %g", c.name, c.got, c.bound)
		}
	}
}

// BenchmarkCheckSC times CheckSC on the cost configuration and reports
// time, bytes and allocations per node.
func BenchmarkCheckSC(b *testing.B) {
	s, _ := checkerRun(b, true)
	var nodes int
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		_, _, g := s.CheckSC()
		nodes = g.Nodes()
	}
	runtime.ReadMemStats(&m1)
	b.StopTimer()
	per := float64(b.N) * float64(nodes)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/node")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/per, "B/node")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/per, "allocs/node")
}

// BenchmarkWindow times the cost configuration's run window per
// committed instruction, untracked and tracked: the time tracking adds
// to a run. Each iteration builds a fresh machine, which ns/op counts
// and ns/instr does not.
func BenchmarkWindow(b *testing.B) {
	for _, track := range []bool{false, true} {
		b.Run(fmt.Sprintf("tracked=%t", track), func(b *testing.B) {
			var took time.Duration
			var n uint64
			for i := 0; i < b.N; i++ {
				s, w := checkerRun(b, track)
				took += w.took
				n += committed(s)
			}
			b.ReportMetric(float64(took.Nanoseconds())/float64(n), "ns/instr")
		})
	}
}
