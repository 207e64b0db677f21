package coherence

import (
	"testing"

	"vbmo/internal/cache"
	"vbmo/internal/prog"
)

// Compile-time check: Bus satisfies the cache backend interface and
// cache.Hierarchy satisfies Peer.
var (
	_ cache.Backend = (*Bus)(nil)
	_ Peer          = (*cache.Hierarchy)(nil)
)

func twoCoreSystem(t *testing.T) (*Bus, []*cache.Hierarchy) {
	t.Helper()
	bus := NewBus(2, 400)
	hiers := make([]*cache.Hierarchy, 2)
	for c := 0; c < 2; c++ {
		cfg := cache.DefaultHierConfig()
		cfg.PrefetchEntries = 0
		hiers[c] = cache.NewHierarchy(c, cfg, bus)
		bus.AttachPeer(c, hiers[c])
	}
	return bus, hiers
}

func TestColdReadFromMemory(t *testing.T) {
	bus, h := twoCoreSystem(t)
	r := h[0].Read(0x40, 0x1000, 0)
	if r.External {
		t.Error("memory fill should not be external")
	}
	if r.Latency < 400+AddrLatency+DataLatency {
		t.Errorf("MP memory latency = %d, want >= %d", r.Latency, 400+AddrLatency+DataLatency)
	}
	if bus.Stats.Reads != 1 {
		t.Errorf("bus reads = %d", bus.Stats.Reads)
	}
}

func TestCacheToCacheTransfer(t *testing.T) {
	_, h := twoCoreSystem(t)
	// Core 0 writes the block (gains M), then core 1 reads it.
	h[0].Write(0x2000, 0)
	r := h[1].Read(0x40, 0x2000, 100)
	if !r.External {
		t.Error("read of a remotely-modified block must be an external fill")
	}
	if r.Latency > 400 {
		t.Errorf("cache-to-cache latency %d should beat memory", r.Latency)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	bus, h := twoCoreSystem(t)
	h[0].Read(0x40, 0x3000, 0)
	h[1].Read(0x40, 0x3000, 0)
	invalidated := []uint64{}
	bus.OnInvalidation(0, func(b uint64) { invalidated = append(invalidated, b) })
	h[1].Write(0x3000, 100)
	if len(invalidated) != 1 || invalidated[0] != 0x3000 {
		t.Fatalf("core 0 should observe one invalidation, got %v", invalidated)
	}
	if h[0].L1DContains(0x3000) {
		t.Error("core 0 copy not invalidated")
	}
}

func TestInclusiveHierarchyFiltersSnoops(t *testing.T) {
	bus, h := twoCoreSystem(t)
	seen := 0
	bus.OnInvalidation(0, func(uint64) { seen++ })
	// Core 0 never cached the block; core 1's write must be filtered.
	h[1].Write(0x4000, 0)
	h[1].Read(0x40, 0x4000, 10)
	if seen != 0 {
		t.Errorf("filtered snoop still delivered %d events", seen)
	}
	if bus.Stats.Invalidations != 0 {
		t.Errorf("bus recorded %d delivered invalidations", bus.Stats.Invalidations)
	}
}

func TestUpgradeLatencyCheaperThanMiss(t *testing.T) {
	_, h := twoCoreSystem(t)
	h[0].Read(0x40, 0x5000, 0) // S copy
	h[1].Read(0x40, 0x5000, 0) // S copy
	r := h[0].Write(0x5000, 100)
	if r.Latency > AddrLatency+1 {
		t.Errorf("upgrade of shared copy should cost an address message, got %d", r.Latency)
	}
}

func TestStillExclusive(t *testing.T) {
	bus, h := twoCoreSystem(t)
	h[0].Write(0x6000, 0)
	if !bus.StillExclusive(0, 0x6000) {
		t.Error("writer should be exclusive")
	}
	h[1].Read(0x40, 0x6000, 10)
	if bus.StillExclusive(0, 0x6000) {
		t.Error("remote read must revoke exclusivity")
	}
	// Re-writing requires an upgrade and re-invalidates core 1.
	h[0].Write(0x6000, 20)
	if !bus.StillExclusive(0, 0x6000) {
		t.Error("write should restore exclusivity")
	}
	if h[1].L1DContains(0x6000) {
		t.Error("core 1 copy should be gone after core 0's write")
	}
}

func TestWriteAfterWriteBetweenCores(t *testing.T) {
	_, h := twoCoreSystem(t)
	h[0].Write(0x7000, 0)
	r := h[1].Write(0x7000, 10)
	if !r.External {
		t.Error("write to a remotely-modified block is an external transfer")
	}
	if h[0].L1DContains(0x7000) {
		t.Error("old owner retains the block")
	}
}

func TestDMAWritesInvalidateAndMarkExternal(t *testing.T) {
	bus, h := twoCoreSystem(t)
	img := prog.NewImage(1)
	block := IOBase
	// Core 0 caches an I/O buffer block.
	h[0].Read(0x40, block, 0)
	events := 0
	bus.OnInvalidation(0, func(b uint64) {
		if b == block {
			events++
		}
	})
	d := &DMA{Bus: bus, Image: img, Blocks: 4, Interval: 100, Burst: 1}
	d.Tick(100)
	if events != 1 {
		t.Fatalf("DMA write should invalidate core 0 (events=%d)", events)
	}
	if bus.Stats.DMAWrites != 1 {
		t.Errorf("DMA writes = %d", bus.Stats.DMAWrites)
	}
	// The DMA data must be visible in the image.
	if img.Read(block) == prog.NewImage(1).Read(block) {
		t.Error("DMA did not write data")
	}
	// Next read of the block is an external fill.
	r := h[0].Read(0x40, block, 2000)
	if !r.External {
		t.Error("post-DMA fill should be external")
	}
}

func TestDMAIntervalAndRing(t *testing.T) {
	bus := NewBus(1, 400)
	h := cache.NewHierarchy(0, cache.DefaultHierConfig(), bus)
	bus.AttachPeer(0, h)
	d := &DMA{Bus: bus, Image: prog.NewImage(0), Blocks: 2, Interval: 50, Burst: 1}
	for cyc := int64(0); cyc < 500; cyc++ {
		d.Tick(cyc)
	}
	// 500/50 = 10 bursts of 1 block.
	if bus.Stats.DMAWrites != 10 {
		t.Errorf("bus DMA writes = %d, want 10", bus.Stats.DMAWrites)
	}
	d2 := &DMA{Bus: bus, Image: prog.NewImage(0), Blocks: 2, Interval: 0, Burst: 1}
	d2.Tick(1000)
	if bus.Stats.DMAWrites != 10 {
		t.Error("disabled DMA should not write")
	}
}

func TestUniprocessorBusLatency(t *testing.T) {
	bus := NewBus(1, 400)
	h := cache.NewHierarchy(0, cache.DefaultHierConfig(), bus)
	bus.AttachPeer(0, h)
	r := h.Read(0x40, 0x8000, 0)
	// Single-core bus should not pay interconnect adders (the cold TLB
	// walk is the only addition beyond memory + hierarchy traversal).
	if r.Latency > 400+15+1+h.DataTLB().WalkLatency {
		t.Errorf("uniprocessor memory latency %d too high", r.Latency)
	}
}

func TestIOBaseMatchesWorkloadConstant(t *testing.T) {
	// coherence.IOBase and workload.IOBase must agree; the workload
	// package cannot import coherence, so both define the constant.
	if IOBase != uint64(1)<<44 {
		t.Errorf("IOBase = %#x", IOBase)
	}
}
