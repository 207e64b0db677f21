package workload

import (
	"runtime"
	"testing"
)

// Heap budget of calibrating one program, averaged over ocean, jbb-mp
// and spin-mp at seed 12: the uncached generation behind Generate, which
// every fresh machine pays for its workload. Measured with Go 1.24:
// 66 allocations and 185.6 KB per program (jbb-mp's 12,000
// instructions take 415 KB of it), against 102.7 and 408.5 KB when
// each of the three candidates had its own builder, and 162 and
// 1.28 MB when calibration filled a Committed record per step and each
// candidate regrew its code and looked its labels up in a map. The
// bounds keep the 15 allocations and 61.5 KB of headroom the previous
// bounds left for the image's maps, whose growth varies across Go
// releases.
const (
	maxGenAllocs = 82
	maxGenBytes  = 250_000
)

// TestGenerateAllocs gates the allocations and bytes of generating the
// three MP programs vbrbench's mp16 builds its machines on. -v logs
// each program's cost.
func TestGenerateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short")
	}
	names := []string{"ocean", "jbb-mp", "spin-mp"}
	var allocs, bytes uint64
	for _, name := range names {
		p, _ := ByName(name)
		p = p.sane()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pr := generate(p, 12)
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(pr)
		a, b := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		t.Logf("%s: %d allocations, %d bytes", name, a, b)
		allocs += a
		bytes += b
	}
	n := uint64(len(names))
	if allocs > maxGenAllocs*n || bytes > maxGenBytes*n {
		t.Errorf("%.1f allocations and %d bytes per program (bound %d, %d)",
			float64(allocs)/float64(n), bytes/n, maxGenAllocs, maxGenBytes)
	}
}
