package cache

import "vbmo/internal/reuse"

// StridePrefetcher is a per-PC stride prefetcher modeled after the
// Power4 hardware prefetcher referenced in Table 3: it tracks the last
// address and stride observed by each load PC and, once a stride repeats
// (confidence ≥ threshold), predicts the next block address to fetch.
type StridePrefetcher struct {
	entries []pfEntry
	mask    uint64
	// Issued counts prefetch predictions produced.
	Issued uint64
}

type pfEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     uint8
}

const pfConfThreshold = 2

// NewStridePrefetcher builds a prefetcher with the given table size
// (power of two).
func NewStridePrefetcher(entries int) *StridePrefetcher {
	p := new(StridePrefetcher)
	p.Reset(entries)
	return p
}

// Reset rebuilds p in place as NewStridePrefetcher would build it,
// reusing its table when it fits.
func (p *StridePrefetcher) Reset(entries int) {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("cache: prefetcher entries must be a positive power of two")
	}
	*p = StridePrefetcher{entries: reuse.Zeroed(p.entries, entries), mask: uint64(entries - 1)}
}

// Observe records a demand access by the load at pc and returns the
// block address to prefetch, if any.
func (p *StridePrefetcher) Observe(pc, addr uint64) (prefetch uint64, ok bool) {
	e := &p.entries[(pc>>2)&p.mask]
	if e.pc != pc {
		*e = pfEntry{pc: pc, lastAddr: addr}
		return 0, false
	}
	stride := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if stride == 0 {
		return 0, false
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		return 0, false
	}
	if e.conf < pfConfThreshold {
		return 0, false
	}
	next := uint64(int64(addr) + stride)
	if BlockAddr(next) == BlockAddr(addr) {
		// Same block: predict the next block in stride direction
		// instead, so unit-stride word walks still cover new blocks.
		if stride > 0 {
			next = BlockAddr(addr) + BlockSize
		} else {
			next = BlockAddr(addr) - BlockSize
		}
	}
	p.Issued++
	return BlockAddr(next), true
}
