package lsq

// Bloom filtering of load-queue searches, after Sethumadhavan et al.
// ("Scalable hardware memory disambiguation for high-ILP processors",
// MICRO 2003) — the first of the augmentative alternatives the paper's
// introduction contrasts with value-based replay. A small counting
// Bloom filter summarizes the addresses of issued loads; store-agen and
// snoop searches consult it first and skip the full CAM search when the
// filter proves no issued load can match. The CAM itself remains — this
// reduces search *energy*, not queue complexity, which is the paper's
// §1 argument for replacing the structure outright.

import "vbmo/internal/reuse"

// BloomFilter is a counting Bloom filter over block/word addresses.
type BloomFilter struct {
	counters []uint8
	mask     uint64
	hashes   int
}

// NewBloomFilter builds a filter with the given counter count (power of
// two) and hash count.
func NewBloomFilter(counters, hashes int) *BloomFilter {
	f := new(BloomFilter)
	f.Reset(counters, hashes)
	return f
}

// Reset rebuilds f in place as NewBloomFilter(counters, hashes) would
// build it — every counter zero — reusing its counter array when it
// fits.
func (f *BloomFilter) Reset(counters, hashes int) {
	if counters <= 0 || counters&(counters-1) != 0 {
		panic("lsq: bloom counters must be a positive power of two")
	}
	if hashes < 1 || hashes > 4 {
		panic("lsq: bloom hash count must be 1..4")
	}
	*f = BloomFilter{
		counters: reuse.Zeroed(f.counters, counters),
		mask:     uint64(counters - 1),
		hashes:   hashes,
	}
}

// hash derives the i-th index for addr.
func (f *BloomFilter) hash(addr uint64, i int) uint64 {
	x := (addr >> 3) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return (x >> (uint(i) * 13)) & f.mask
}

// Insert records an issued load's address.
func (f *BloomFilter) Insert(addr uint64) {
	for i := 0; i < f.hashes; i++ {
		idx := f.hash(addr, i)
		if f.counters[idx] < 255 {
			f.counters[idx]++
		}
	}
}

// Remove erases one occurrence of addr (at commit or squash).
func (f *BloomFilter) Remove(addr uint64) {
	for i := 0; i < f.hashes; i++ {
		idx := f.hash(addr, i)
		if f.counters[idx] > 0 && f.counters[idx] < 255 {
			f.counters[idx]--
		}
	}
}

// MayContain reports whether addr could be present; false is definite.
func (f *BloomFilter) MayContain(addr uint64) bool {
	for i := 0; i < f.hashes; i++ {
		if f.counters[f.hash(addr, i)] == 0 {
			return false
		}
	}
	return true
}

// Hashes returns the filter's hash count.
func (f *BloomFilter) Hashes() int { return f.hashes }

// Counters returns the filter's counters, which the caller must not
// change: the invariant checks compare them with a filter rebuilt from
// the queue's entries.
func (f *BloomFilter) Counters() []uint8 { return f.counters }
