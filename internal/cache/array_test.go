package cache

import (
	"reflect"
	"testing"

	"vbmo/internal/reuse"
)

// TestSetTablePointerFree: the set table indexes the storage chunks and
// the lines hold no pointer, so the collector neither scans an array's
// tables nor fences their stores (DESIGN.md §23).
func TestSetTablePointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(line{}), reflect.TypeOf(Array{}.sets).Elem()} {
		if err := reuse.PointerFree(typ); err != nil {
			t.Error(err)
		}
	}
}

// naiveArray is the reference for Array: a map of sets, each a list of
// block addresses from least to most recently used, true LRU by
// construction.
type naiveArray struct {
	nsets, ways    uint64
	sets           map[uint64][]uint64
	accesses, hits uint64
}

func (n *naiveArray) find(addr uint64) (set uint64, i int) {
	set = addr / BlockSize % n.nsets
	for i, b := range n.sets[set] {
		if b == BlockAddr(addr) {
			return set, i
		}
	}
	return set, -1
}

// touch moves entry i of set to the most recently used end.
func (n *naiveArray) touch(set uint64, i int) {
	s := n.sets[set]
	b := s[i]
	n.sets[set] = append(append(s[:i:i], s[i+1:]...), b)
}

func (n *naiveArray) lookup(addr uint64) bool {
	n.accesses++
	set, i := n.find(addr)
	if i < 0 {
		return false
	}
	n.hits++
	n.touch(set, i)
	return true
}

func (n *naiveArray) insert(addr uint64) (victim uint64, evicted bool) {
	set, i := n.find(addr)
	if i >= 0 {
		n.touch(set, i)
		return 0, false
	}
	s := n.sets[set]
	if uint64(len(s)) == n.ways {
		victim, evicted, s = s[0], true, s[1:]
	}
	n.sets[set] = append(s[:len(s):len(s)], BlockAddr(addr))
	return victim, evicted
}

func (n *naiveArray) invalidate(addr uint64) bool {
	set, i := n.find(addr)
	if i < 0 {
		return false
	}
	s := n.sets[set]
	n.sets[set] = append(s[:i:i], s[i+1:]...)
	return true
}

// TestArrayMatchesNaive drives Array and the naive model with one
// seeded stream of Lookup, Insert, Invalidate, Contains and Reset calls,
// on a direct-mapped and an 8-way geometry with more sets than one
// storage chunk holds, and compares every return value, every victim
// and the hit counters after every call. The stream evicts, and resets
// land after a run has built sets in several chunks, so later runs
// carve kept chunks.
func TestArrayMatchesNaive(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 64 << 10, Ways: 1, Latency: 1},  // 1,024 sets
		{Size: 256 << 10, Ways: 8, Latency: 1}, // 512 sets
	} {
		nsets := uint64(cfg.Size / BlockSize / cfg.Ways)
		a := NewArray(cfg)
		n := &naiveArray{nsets: nsets, ways: uint64(cfg.Ways), sets: map[uint64][]uint64{}}
		blocks := 3 * nsets * uint64(cfg.Ways)
		x := uint64(cfg.Ways)
		evictions, deepResets := 0, 0
		for step := 0; step < 60000; step++ {
			x = x*6364136223846793005 + 1442695040888963407
			addr := (x>>24)%blocks*BlockSize + (x>>16)%BlockSize
			var got, want any
			switch op := x >> 58; {
			case op == 0 && step%97 == 0:
				if len(a.touched) > arenaSets {
					deepResets++
				}
				a.Reset(cfg)
				n.sets, n.accesses, n.hits = map[uint64][]uint64{}, 0, 0
				got, want = a.Config(), cfg
			case op < 24:
				got, want = a.Lookup(addr), n.lookup(addr)
			case op < 48:
				v, e := a.Insert(addr)
				nv, ne := n.insert(addr)
				got, want = [2]any{v, e}, [2]any{nv, ne}
				if ne {
					evictions++
				}
			case op < 56:
				got, want = a.Invalidate(addr), n.invalidate(addr)
			default:
				_, i := n.find(addr)
				got, want = a.Contains(addr), i >= 0
			}
			if got != want || a.Accesses != n.accesses || a.Hits != n.hits {
				t.Fatalf("%d-way, step %d, addr %#x: got %v, want %v; accesses %d/%d, hits %d/%d",
					cfg.Ways, step, addr, got, want, a.Accesses, n.accesses, a.Hits, n.hits)
			}
		}
		t.Logf("%d-way: %d evictions, %d resets past one chunk", cfg.Ways, evictions, deepResets)
		if evictions < 1000 || deepResets < 2 {
			t.Errorf("%d-way: the stream evicted %d times and reset %d times past one chunk, want more",
				cfg.Ways, evictions, deepResets)
		}
	}
}
