package cache

import "vbmo/internal/reuse"

// TLB models address translation for the paper's physically-indexed
// data cache. Its role in this reproduction is the §3 observation that
// replay accesses are cheaper than premature ones: "the replay access
// can reuse the effective address calculated during the premature
// load's execution, and in systems with a physically indexed cache the
// TLB need not be accessed a second time." Demand accesses look the
// TLB up (and stall on misses for a page-walk latency); replay
// accesses do not, and the avoided lookups feed the §5.3 energy
// argument.
type TLB struct {
	entries []tlbEntry
	ways    int
	sets    int
	tick    uint32
	// WalkLatency is the page-table-walk penalty on a miss.
	WalkLatency int
	// Accesses, Misses count demand translations.
	Accesses, Misses uint64
}

type tlbEntry struct {
	vpn   uint64
	valid bool
	age   uint32
}

// PageShift is the page size (4 KiB) in bits.
const PageShift = 12

// NewTLB builds a set-associative TLB (entries must be a multiple of
// ways; set count a power of two).
func NewTLB(entries, ways, walkLatency int) *TLB {
	t := new(TLB)
	t.Reset(entries, ways, walkLatency)
	return t
}

// Reset rebuilds t in place as NewTLB would build it, reusing its entry
// table when it fits.
func (t *TLB) Reset(entries, ways, walkLatency int) {
	sets := entries / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: TLB set count must be a positive power of two")
	}
	*t = TLB{
		entries:     reuse.Zeroed(t.entries, entries),
		ways:        ways,
		sets:        sets,
		WalkLatency: walkLatency,
	}
}

// Translate performs a demand translation for addr, returning the added
// latency (0 on a hit, WalkLatency on a miss; the paper's machine walks
// page tables in hardware).
func (t *TLB) Translate(addr uint64) int {
	t.Accesses++
	vpn := addr >> PageShift
	set := int(vpn) & (t.sets - 1)
	base := set * t.ways
	t.tick++
	victim := base
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if e.valid && e.vpn == vpn {
			e.age = t.tick
			return 0
		}
		if !e.valid {
			victim = base + w
		} else if t.entries[victim].valid && e.age < t.entries[victim].age {
			victim = base + w
		}
	}
	t.Misses++
	t.entries[victim] = tlbEntry{vpn: vpn, valid: true, age: t.tick}
	return t.WalkLatency
}

// MissRate returns misses/accesses.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
