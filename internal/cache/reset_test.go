package cache

import (
	"reflect"
	"testing"
)

// resetCfg is a small hierarchy with every optional part (prefetcher,
// TLB) enabled and more sets than one storage chunk holds, so a run
// spans several chunks.
func resetCfg() HierConfig {
	return HierConfig{
		L1I:             Config{Size: 2 << 10, Ways: 1, Latency: 1},
		L1D:             Config{Size: 2 << 10, Ways: 2, Latency: 1},
		L2:              Config{Size: 8 << 10, Ways: 2, Latency: 5},
		L3:              Config{Size: 64 << 10, Ways: 2, Latency: 12},
		PrefetchEntries: 64,
		TLBEntries:      8, TLBWays: 2, TLBWalkLatency: 30,
	}
}

// driveHierarchy runs a pseudo-random access stream and returns every
// access's timing plus the final counters. Reads walk per-PC strides
// from the positions in walk, so the prefetcher engages.
func driveHierarchy(h *Hierarchy, seed uint64, walk *[32]uint64) []any {
	var out []any
	x := seed
	for cycle := int64(0); cycle < 4000; cycle++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 30) % (256 << 10)
		i := (x >> 12) % 32
		pc := i*4 + 0x1000
		switch x >> 61 {
		case 0:
			out = append(out, h.Write(addr, cycle))
		case 1:
			out = append(out, h.InstrFetch(pc))
		case 2:
			out = append(out, h.SnoopInvalidate(BlockAddr(addr)))
		case 3:
			h.Prewarm(addr)
		default:
			walk[i] += (i%3 + 1) * 64
			out = append(out, h.Read(pc, i<<16+walk[i]%(64<<10), cycle))
		}
	}
	l1, l2, l3 := h.MissRates()
	return append(out, h.Stats, l1, l2, l3, *h.DataTLB())
}

// TestHierarchyResetMatchesNew: a used hierarchy rebuilt by Reset —
// sets unbuilt, storage chunks carved again, MSHRs, TLB and
// prefetcher cleared — times every access exactly like a new one.
func TestHierarchyResetMatchesNew(t *testing.T) {
	be := MemoryBackend{Latency: 100}
	used := NewHierarchy(0, resetCfg(), be)
	var walk [32]uint64
	driveHierarchy(used, 1, &walk)
	used.Reset(0, resetCfg(), be)
	// Both continue the same walks, where a stale prefetcher entry
	// would already be confident.
	walk2 := walk
	got := driveHierarchy(used, 2, &walk)
	if want := driveHierarchy(NewHierarchy(0, resetCfg(), be), 2, &walk2); !reflect.DeepEqual(got, want) {
		t.Fatal("a reset hierarchy diverged from a new one")
	}
}

// TestArrayResetNewGeometry: Reset to another geometry rebuilds the
// array from scratch.
func TestArrayResetNewGeometry(t *testing.T) {
	a := NewArray(Config{Size: 4 << 10, Ways: 4, Latency: 1})
	for addr := uint64(0); addr < 64<<10; addr += BlockSize {
		a.Insert(addr)
	}
	small := Config{Size: 1 << 10, Ways: 2, Latency: 1}
	a.Reset(small)
	b := NewArray(small)
	for addr := uint64(0); addr < 8<<10; addr += 3 * BlockSize {
		if a.Lookup(addr) != b.Lookup(addr) {
			t.Fatalf("lookup %#x diverged after a geometry change", addr)
		}
		va, ea := a.Insert(addr)
		vb, eb := b.Insert(addr)
		if va != vb || ea != eb {
			t.Fatalf("insert %#x diverged after a geometry change", addr)
		}
	}
}
