// Package cache models the Table 3 cache hierarchy as a timing filter:
// set-associative tag arrays with LRU replacement, an inclusive
// three-level private hierarchy, MSHR-style miss merging, and a
// Power4-style stride prefetcher. Data values live in the shared memory
// image (package prog); the caches decide only *latency* and *coherence
// events*, which is all the memory-ordering mechanisms consume.
package cache

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
type Array struct {
	cfg     Config
	sets    [][]line
	setMask uint64
	tick    uint32
	// arena is the tail of the current line-storage chunk; newSet carves
	// lazily-materialized sets out of it (see NewArray).
	arena []line
	// chunks holds every storage chunk in carve order; chunks[:used]
	// back the sets of this run, and Reset rewinds used to zero so the
	// next run carves the same chunks again.
	chunks [][]line
	used   int
	// touched lists the indices of materialized sets: exactly the
	// non-nil elements of sets, which Reset nils again.
	touched []uint32
	// Accesses, Hits count Lookup calls and their hits.
	Accesses, Hits uint64
}

// NewArray builds a tag array. Size/BlockSize/Ways must divide evenly;
// the set count must be a power of two. Per-set line storage is
// allocated lazily on first Insert: a large lightly-used array (an 8 MB
// L3 per core) costs memory proportional to its touched footprint, and
// construction-heavy paths (one fresh hierarchy per experiment cell)
// stop paying for sets the run never references. A nil set behaves
// exactly like a set of invalid lines.
func NewArray(cfg Config) *Array {
	a := new(Array)
	a.Reset(cfg)
	return a
}

// Reset rebuilds a in place as NewArray(cfg) would build it. With an
// unchanged geometry it keeps its storage: the sets the last run
// materialized are un-materialized and the arena chunks are rewound,
// so the cost is proportional to the footprint the run touched.
func (a *Array) Reset(cfg Config) {
	nsets := cfg.Size / BlockSize / cfg.Ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	sets, chunks := a.sets, a.chunks
	if cfg == a.cfg {
		for _, si := range a.touched {
			sets[si] = nil
		}
	} else {
		sets, chunks = make([][]line, nsets), nil
	}
	*a = Array{cfg: cfg, setMask: uint64(nsets - 1), sets: sets,
		chunks: chunks, touched: a.touched[:0]}
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

func (a *Array) setIndex(addr uint64) uint64 {
	return (addr / BlockSize) & a.setMask
}

// arenaSets is how many sets each storage chunk holds. Chunking keeps
// first-touch materialization amortized (one allocation per arenaSets
// sets) so a workload that keeps expanding its footprint does not pay
// one heap allocation per newly-touched set in steady state.
const arenaSets = 256

// newSet materializes storage for set si. A rewound chunk still holds
// the lines of an earlier run, so each carved set is cleared.
func (a *Array) newSet(si uint64) []line {
	w := a.cfg.Ways
	if len(a.arena) < w {
		if a.used < len(a.chunks) {
			a.arena = a.chunks[a.used]
		} else {
			chunk := arenaSets
			if n := int(a.setMask) + 1; n < chunk {
				chunk = n
			}
			a.arena = make([]line, chunk*w)
			a.chunks = append(a.chunks, a.arena)
		}
		a.used++
	}
	s := a.arena[:w:w]
	clear(s)
	a.arena = a.arena[w:]
	a.touched = append(a.touched, uint32(si))
	return s
}

func (a *Array) set(addr uint64) []line {
	return a.sets[a.setIndex(addr)]
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
	si := a.setIndex(addr)
	set := a.sets[si]
	if set == nil {
		set = a.newSet(si)
		a.sets[si] = set
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
