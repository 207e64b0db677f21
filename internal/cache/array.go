// Package cache models the Table 3 cache hierarchy as a timing filter:
// set-associative tag arrays with LRU replacement, an inclusive
// three-level private hierarchy, MSHR-style miss merging, and a
// Power4-style stride prefetcher. Data values live in the shared memory
// image (package prog); the caches decide only *latency* and *coherence
// events*, which is all the memory-ordering mechanisms consume.
package cache

import "math/bits"

// BlockSize is the cache block size in bytes (Table 3: 64-byte lines).
const BlockSize = 64

// BlockAddr returns the block-aligned address containing addr.
func BlockAddr(addr uint64) uint64 { return addr &^ (BlockSize - 1) }

// Config describes one cache level.
type Config struct {
	// Size is the capacity in bytes.
	Size int
	// Ways is the set associativity (1 = direct mapped).
	Ways int
	// Latency is the access latency in cycles.
	Latency int
}

type line struct {
	tag   uint64
	valid bool
	age   uint32 // lower is more recently used
}

// Array is a set-associative tag array with true-LRU replacement. It
// tracks presence only; block data lives in the memory image.
//
// The set table holds no pointers (DESIGN.md §23): sets[si] is 1 + the
// ordinal at which newSet carved set si out of the storage chunks, or 0
// while the set is not built, so the collector neither scans the table
// (16,384 entries per core for the L3) nor fences its stores.
type Array struct {
	cfg     Config
	sets    []uint32
	setMask uint64
	// chunkShift is log2 of the sets one storage chunk holds: set
	// ordinal k lives in chunks[k>>chunkShift].
	chunkShift uint
	tick       uint32
	// chunks holds every storage chunk in carve order. Reset keeps them,
	// so the next run carves the same chunks again.
	chunks [][]line
	// touched is the inverse of sets: touched[k] is the index of the set
	// with ordinal k, so len(touched) sets are built, and Reset zeroes
	// exactly their entries of sets.
	touched []uint32
	// Accesses, Hits count Lookup calls and their hits.
	Accesses, Hits uint64
}

// NewArray builds a tag array. Size/BlockSize/Ways must divide evenly;
// the set count must be a power of two. Per-set line storage is
// allocated lazily on first Insert: a large lightly-used array (an 8 MB
// L3 per core) costs memory proportional to its touched footprint, and
// construction-heavy paths (one fresh hierarchy per experiment cell)
// stop paying for sets the run never references. A set not built yet
// behaves exactly like a set of invalid lines.
func NewArray(cfg Config) *Array {
	a := new(Array)
	a.Reset(cfg)
	return a
}

// Reset rebuilds a in place as NewArray(cfg) would build it. With an
// unchanged geometry it keeps its storage: the sets the last run built
// are unbuilt and their chunks are carved again from the first, so the
// cost is proportional to the footprint the run touched.
func (a *Array) Reset(cfg Config) {
	nsets := cfg.Size / BlockSize / cfg.Ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	sets, chunks := a.sets, a.chunks
	if cfg == a.cfg {
		for _, si := range a.touched {
			sets[si] = 0
		}
	} else {
		sets, chunks = make([]uint32, nsets), nil
	}
	*a = Array{cfg: cfg, setMask: uint64(nsets - 1), sets: sets,
		chunkShift: uint(bits.TrailingZeros(uint(min(arenaSets, nsets)))),
		chunks:     chunks, touched: a.touched[:0]}
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

func (a *Array) setIndex(addr uint64) uint64 {
	return (addr / BlockSize) & a.setMask
}

// arenaSets is how many sets each storage chunk holds. Chunking keeps
// first-touch set building amortized (one allocation per arenaSets
// sets) so a workload that keeps expanding its footprint does not pay
// one heap allocation per newly-touched set in steady state.
const arenaSets = 256

// lines returns the storage of the set with ordinal k.
func (a *Array) lines(k uint32) []line {
	w := a.cfg.Ways
	i := int(k&(1<<a.chunkShift-1)) * w
	return a.chunks[k>>a.chunkShift][i : i+w : i+w]
}

// newSet builds set si: it takes the next ordinal, carving a new chunk
// when the chunks kept so far are used up. A kept chunk still holds the
// lines of an earlier run, so each carved set is cleared.
func (a *Array) newSet(si uint64) []line {
	k := uint32(len(a.touched))
	if int(k>>a.chunkShift) == len(a.chunks) {
		a.chunks = append(a.chunks, make([]line, a.cfg.Ways<<a.chunkShift))
	}
	s := a.lines(k)
	clear(s)
	a.touched = append(a.touched, uint32(si))
	a.sets[si] = k + 1
	return s
}

// set returns addr's set, nil while it is not built.
func (a *Array) set(addr uint64) []line {
	if k := a.sets[a.setIndex(addr)]; k != 0 {
		return a.lines(k - 1)
	}
	return nil
}

// Lookup probes for addr's block, updating LRU and hit statistics.
func (a *Array) Lookup(addr uint64) bool {
	a.Accesses++
	tag := BlockAddr(addr)
	set := a.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			a.tick++
			set[i].age = a.tick
			a.Hits++
			return true
		}
	}
	return false
}

// Contains probes for addr's block without disturbing LRU or statistics.
func (a *Array) Contains(addr uint64) bool {
	tag := BlockAddr(addr)
	for _, l := range a.set(addr) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Insert fills addr's block, returning the evicted block address if a
// valid victim was displaced.
func (a *Array) Insert(addr uint64) (victim uint64, evicted bool) {
	tag := BlockAddr(addr)
	set := a.set(addr)
	if set == nil {
		set = a.newSet(a.setIndex(addr))
	}
	a.tick++
	vi := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].age = a.tick // already present: refresh
			return 0, false
		}
		if !set[i].valid {
			vi = i
		} else if set[vi].valid && set[i].age < set[vi].age {
			vi = i
		}
	}
	if set[vi].valid {
		victim, evicted = set[vi].tag, true
	}
	set[vi] = line{tag: tag, valid: true, age: a.tick}
	return victim, evicted
}

// Invalidate removes addr's block, reporting whether it was present.
func (a *Array) Invalidate(addr uint64) bool {
	tag := BlockAddr(addr)
	set := a.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			return true
		}
	}
	return false
}

// MissRate returns 1 - hits/accesses.
func (a *Array) MissRate() float64 {
	if a.Accesses == 0 {
		return 0
	}
	return 1 - float64(a.Hits)/float64(a.Accesses)
}
