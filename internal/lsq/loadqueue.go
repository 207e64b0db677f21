package lsq

import (
	"vbmo/internal/cache"
	"vbmo/internal/trace"
)

// Mode selects the associative load queue's consistency-enforcement
// style (paper §2.1).
type Mode int

const (
	// Snooping load queues are searched by external invalidations
	// (Gharachorloo et al.; MIPS R10000, Pentium Pro).
	Snooping Mode = iota
	// Insulated load queues are searched by each issuing load and never
	// process external invalidations (Alpha 21264).
	Insulated
	// Hybrid queues snoop to *mark* conflicting loads and squash only
	// marked conflicts found by load-issue searches (IBM Power4).
	Hybrid
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Snooping:
		return "snooping"
	case Insulated:
		return "insulated"
	case Hybrid:
		return "hybrid"
	}
	return "?"
}

// LoadEntry is one in-flight load in the associative queue.
type LoadEntry struct {
	// Tag is the load's ROB sequence number (program order).
	Tag int64
	// PC is the load's program counter (for predictor training).
	PC uint64
	// Addr is the word-aligned effective address, valid once Issued.
	Addr uint64
	// Issued marks loads that have executed prematurely (only issued
	// loads participate in violation searches).
	Issued bool
	// ForwardTag is the store the load's value was forwarded from
	// (-1 when the value came from the cache).
	ForwardTag int64
	// Marked is the hybrid design's snoop-hit mark.
	Marked bool
}

// Squash describes a memory-order violation found by a search: the
// pipeline must squash from Tag (inclusive) and may train a dependence
// predictor with PC.
type Squash struct {
	// Tag is the oldest violating load's ROB sequence number.
	Tag int64
	// PC is the violating load's program counter.
	PC uint64
}

// AssocLoadQueue is the conventional CAM-based load queue. Searches are
// counted, along with the occupancy at each search, for the Table 2 /
// §5.3 energy accounting.
type AssocLoadQueue struct {
	mode    Mode
	entries []LoadEntry
	cap     int
	// Searches counts CAM search operations; SearchedEntries
	// accumulates occupancy over searches (energy scales with entries
	// searched).
	Searches        uint64
	SearchedEntries uint64
	// InvalSquashes, RAWSquashes, IssueSquashes count violations found
	// by each search type.
	InvalSquashes, RAWSquashes, IssueSquashes uint64
	// bloom, when enabled, summarizes issued-load block addresses so
	// store-agen and snoop searches can skip the CAM when no issued
	// load can match (Sethumadhavan et al.; see bloom.go).
	bloom *BloomFilter
	// BloomFiltered counts CAM searches avoided by the filter.
	BloomFiltered uint64
	// Emit, when non-nil, receives trace events only the queue itself
	// can see — currently the hybrid design's snoop marks (KLQMark),
	// which defer a possible squash rather than causing one. The
	// pipeline wires it in SetTracer, filling in core and cycle.
	Emit func(kind trace.Kind, tag int64, pc, addr uint64)
}

// NewAssocLoadQueue creates a queue of the given capacity and mode.
func NewAssocLoadQueue(mode Mode, capacity int) *AssocLoadQueue {
	q := new(AssocLoadQueue)
	q.Reset(mode, capacity)
	return q
}

// Reset rebuilds q in place as NewAssocLoadQueue would build it —
// empty, unfiltered, counters zero, no Emit hook — reusing its entry
// array.
func (q *AssocLoadQueue) Reset(mode Mode, capacity int) {
	*q = AssocLoadQueue{mode: mode, cap: capacity, entries: q.entries[:0]}
}

// EnableBloom attaches a counting Bloom filter with the given counter
// count and hash functions.
func (q *AssocLoadQueue) EnableBloom(counters, hashes int) {
	q.bloom = NewBloomFilter(counters, hashes)
}

// Bloom returns the attached filter (nil when disabled).
func (q *AssocLoadQueue) Bloom() *BloomFilter { return q.bloom }

// Mode returns the queue's consistency-enforcement style.
func (q *AssocLoadQueue) Mode() Mode { return q.mode }

// Len returns the occupancy.
func (q *AssocLoadQueue) Len() int { return len(q.entries) }

// Full reports whether another load can be dispatched. A full load
// queue stalls dispatch — the size-constrained configurations of
// Figure 8 bite here.
func (q *AssocLoadQueue) Full() bool { return len(q.entries) >= q.cap }

// Insert adds a load at dispatch in program order.
func (q *AssocLoadQueue) Insert(tag int64, pc uint64) bool {
	if q.Full() {
		return false
	}
	if n := len(q.entries); n > 0 && q.entries[n-1].Tag >= tag {
		panic("lsq: load tags must be inserted in program order")
	}
	q.entries = append(q.entries, LoadEntry{Tag: tag, PC: pc, ForwardTag: -1})
	return true
}

func (q *AssocLoadQueue) find(tag int64) *LoadEntry {
	for i := range q.entries {
		if q.entries[i].Tag == tag {
			return &q.entries[i]
		}
	}
	return nil
}

func (q *AssocLoadQueue) countSearch() {
	q.Searches++
	q.SearchedEntries += uint64(len(q.entries))
}

// OnIssue records a load's premature execution and, in the insulated
// and hybrid designs, searches for younger already-issued loads to the
// same address that must squash (paper Figure 1(c)). It returns the
// oldest such violation, if any.
//
//vbr:hotpath
func (q *AssocLoadQueue) OnIssue(tag int64, addr uint64, forwardTag int64) (Squash, bool) {
	e := q.find(tag)
	if e == nil {
		return Squash{}, false
	}
	e.Addr = addr &^ 7
	e.Issued = true
	e.ForwardTag = forwardTag
	if q.bloom != nil {
		q.bloom.Insert(cache.BlockAddr(addr))
	}
	if q.mode == Snooping {
		// Snooping SC queues need no load-issue search.
		return Squash{}, false
	}
	q.countSearch()
	for i := range q.entries {
		le := &q.entries[i]
		if le.Tag <= tag || !le.Issued || le.Addr != e.Addr {
			continue
		}
		if q.mode == Hybrid && !le.Marked {
			// Power4: only snoop-marked conflicts squash.
			continue
		}
		q.IssueSquashes++
		return Squash{Tag: le.Tag, PC: le.PC}, true
	}
	return Squash{}, false
}

// OnStoreAgen is the uniprocessor RAW check (paper Figure 1(a)): when a
// store's address resolves, issued younger loads to the same address
// that did not forward from a yet-younger store are violations. The
// oldest violation is returned.
//
//vbr:hotpath
func (q *AssocLoadQueue) OnStoreAgen(addr uint64, storeTag int64) (Squash, bool) {
	if q.bloom != nil && !q.bloom.MayContain(cache.BlockAddr(addr)) {
		q.BloomFiltered++
		return Squash{}, false
	}
	q.countSearch()
	addr &^= 7
	for i := range q.entries {
		le := &q.entries[i]
		if le.Tag <= storeTag || !le.Issued || le.Addr != addr {
			continue
		}
		if le.ForwardTag >= storeTag {
			// The load's value came from the resolving store itself or
			// from a younger one; no violation.
			continue
		}
		q.RAWSquashes++
		return Squash{Tag: le.Tag, PC: le.PC}, true
	}
	return Squash{}, false
}

// OnInvalidation processes an external invalidation (or an L3 castout,
// which must be treated identically to preserve snoop visibility).
// commitTag is the ROB's next-to-commit instruction. That load is never
// squashed: every older instruction has committed, so architectural
// state is consistent with the load having already performed (paper
// §2.1 — note this is the next instruction to commit, not merely the
// oldest queue entry; an uncommitted older store voids the argument,
// which the SB litmus test observes as the forbidden r=0,0 outcome).
// Every other issued match is a violation — including loads whose fill
// is still outstanding: the invalidation strips the block from the
// local cache, so a later remote write would deliver no snoop here,
// and a merely refreshed value would commit with nothing guaranteeing
// its coherence (the MP litmus test observes exactly that hole as
// r=1,0 under probe contention). The oldest violation is returned
// (hybrid queues mark instead of squashing).
//
//vbr:hotpath
func (q *AssocLoadQueue) OnInvalidation(block uint64, commitTag int64) (Squash, bool) {
	if q.mode == Insulated {
		return Squash{}, false
	}
	if q.bloom != nil && !q.bloom.MayContain(cache.BlockAddr(block)) {
		q.BloomFiltered++
		return Squash{}, false
	}
	q.countSearch()
	for i := range q.entries {
		le := &q.entries[i]
		if !le.Issued || cache.BlockAddr(le.Addr) != cache.BlockAddr(block) {
			continue
		}
		if le.Tag == commitTag {
			continue
		}
		if q.mode == Hybrid {
			le.Marked = true
			if q.Emit != nil {
				q.Emit(trace.KLQMark, le.Tag, le.PC, block)
			}
			continue
		}
		q.InvalSquashes++
		return Squash{Tag: le.Tag, PC: le.PC}, true
	}
	return Squash{}, false
}

// Remove deletes the load with the given tag (at commit).
func (q *AssocLoadQueue) Remove(tag int64) {
	for i := range q.entries {
		if q.entries[i].Tag == tag {
			q.unfilter(&q.entries[i])
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			return
		}
	}
}

// Squash removes every load with tag >= fromTag.
func (q *AssocLoadQueue) Squash(fromTag int64) {
	for i := range q.entries {
		if q.entries[i].Tag >= fromTag {
			for j := i; j < len(q.entries); j++ {
				q.unfilter(&q.entries[j])
			}
			q.entries = q.entries[:i]
			return
		}
	}
}

func (q *AssocLoadQueue) unfilter(e *LoadEntry) {
	if q.bloom != nil && e.Issued {
		q.bloom.Remove(cache.BlockAddr(e.Addr))
	}
}
