package lsq

import (
	"vbmo/internal/cache"
	"vbmo/internal/reuse"
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

// LoadEntry is the payload of one in-flight load in the associative
// queue; its tag (ROB sequence number) lives in the queue's Window.
type LoadEntry struct {
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
// §5.3 energy accounting. Loads are addressed by the handle Insert
// returns (DESIGN.md §21); only the modelled CAM searches scan.
type AssocLoadQueue struct {
	mode    Mode
	w       Window      // the tags, and the index of every handle
	entries []LoadEntry // parallel to the tags
	// Searches counts CAM search operations; SearchedEntries
	// accumulates occupancy over searches (energy scales with entries
	// searched).
	Searches        uint64
	SearchedEntries uint64
	// InvalSquashes, RAWSquashes, IssueSquashes count violations found
	// by each search type.
	InvalSquashes, RAWSquashes, IssueSquashes uint64
	// bloom, when bloomOn, summarizes issued-load block addresses so
	// store-agen and snoop searches can skip the CAM when no issued
	// load can match (Sethumadhavan et al.; see bloom.go). Reset keeps
	// the filter, off, for EnableBloom to reuse.
	bloom   *BloomFilter
	bloomOn bool
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
// empty, unfiltered, counters zero, no Emit hook — reusing its arrays.
func (q *AssocLoadQueue) Reset(mode Mode, capacity int) {
	*q = AssocLoadQueue{mode: mode, w: q.w,
		entries: reuse.Resized(q.entries, 2*capacity), bloom: q.bloom}
	q.w.Reset(capacity)
}

// EnableBloom attaches a counting Bloom filter with the given counter
// count and hash functions.
func (q *AssocLoadQueue) EnableBloom(counters, hashes int) {
	q.bloom = reuse.Ptr(q.bloom)
	q.bloom.Reset(counters, hashes)
	q.bloomOn = true
}

// Bloom returns the attached filter (nil when disabled).
func (q *AssocLoadQueue) Bloom() *BloomFilter {
	if !q.bloomOn {
		return nil
	}
	return q.bloom
}

// Len returns the occupancy.
func (q *AssocLoadQueue) Len() int { return q.w.Len() }

// Full reports whether another load can be dispatched. A full load
// queue stalls dispatch — the size-constrained configurations of
// Figure 8 bite here.
func (q *AssocLoadQueue) Full() bool { return q.w.Full() }

// Window returns a copy of the queue's tag window, for invariant checks.
func (q *AssocLoadQueue) Window() Window { return q.w }

// Insert adds a load at dispatch in program order and returns its
// handle; it fails when the queue is full.
//
//vbr:hotpath
func (q *AssocLoadQueue) Insert(tag int64, pc uint64) (Handle, bool) {
	if q.w.Full() {
		return 0, false
	}
	if from, n := q.w.Rebase(); n > 0 {
		copy(q.entries, q.entries[from:from+n])
	}
	h, i := q.w.Push(tag)
	q.entries[i] = LoadEntry{PC: pc, ForwardTag: -1}
	return h, true
}

func (q *AssocLoadQueue) countSearch() {
	q.Searches++
	q.SearchedEntries += uint64(q.w.Len())
}

// live returns the queued tags and entries, oldest first, index-aligned.
func (q *AssocLoadQueue) live() ([]int64, []LoadEntry) {
	lo, hi := q.w.Bounds()
	return q.w.tags[lo:hi], q.entries[lo:hi]
}

// OnIssue records the premature execution of the load with handle h
// and, in the insulated and hybrid designs, searches for younger
// already-issued loads to the same address that must squash (paper
// Figure 1(c)). It returns the oldest such violation, if any.
//
//vbr:hotpath
func (q *AssocLoadQueue) OnIssue(h Handle, addr uint64, forwardTag int64) (Squash, bool) {
	i := q.w.Index(h)
	e := &q.entries[i]
	e.Addr = addr &^ 7
	e.Issued = true
	e.ForwardTag = forwardTag
	if q.bloomOn {
		q.bloom.Insert(cache.BlockAddr(addr))
	}
	if q.mode == Snooping {
		// Snooping SC queues need no load-issue search.
		return Squash{}, false
	}
	q.countSearch()
	// Only younger loads can violate: the search starts past this one.
	_, hi := q.w.Bounds()
	tags, entries := q.w.tags[i+1:hi], q.entries[i+1:hi]
	for j := range entries {
		le := &entries[j]
		if !le.Issued || le.Addr != e.Addr {
			continue
		}
		if q.mode == Hybrid && !le.Marked {
			// Power4: only snoop-marked conflicts squash.
			continue
		}
		q.IssueSquashes++
		return Squash{Tag: tags[j], PC: le.PC}, true
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
	if q.bloomOn && !q.bloom.MayContain(cache.BlockAddr(addr)) {
		q.BloomFiltered++
		return Squash{}, false
	}
	q.countSearch()
	addr &^= 7
	tags, entries := q.live()
	for i := range entries {
		le := &entries[i]
		if tags[i] <= storeTag || !le.Issued || le.Addr != addr {
			continue
		}
		if le.ForwardTag >= storeTag {
			// The load's value came from the resolving store itself or
			// from a younger one; no violation.
			continue
		}
		q.RAWSquashes++
		return Squash{Tag: tags[i], PC: le.PC}, true
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
	if q.bloomOn && !q.bloom.MayContain(cache.BlockAddr(block)) {
		q.BloomFiltered++
		return Squash{}, false
	}
	q.countSearch()
	tags, entries := q.live()
	for i := range entries {
		le := &entries[i]
		if !le.Issued || cache.BlockAddr(le.Addr) != cache.BlockAddr(block) {
			continue
		}
		if tags[i] == commitTag {
			continue
		}
		if q.mode == Hybrid {
			le.Marked = true
			if q.Emit != nil {
				q.Emit(trace.KLQMark, tags[i], le.PC, block)
			}
			continue
		}
		q.InvalSquashes++
		return Squash{Tag: tags[i], PC: le.PC}, true
	}
	return Squash{}, false
}

// Pop removes the oldest load (at commit).
//
//vbr:hotpath
func (q *AssocLoadQueue) Pop() {
	q.unfilter(&q.entries[q.w.Pop()])
}

// Squash removes every load with tag >= fromTag.
func (q *AssocLoadQueue) Squash(fromTag int64) {
	i, end := q.w.Squash(fromTag)
	for ; i < end; i++ {
		q.unfilter(&q.entries[i])
	}
}

func (q *AssocLoadQueue) unfilter(e *LoadEntry) {
	if q.bloomOn && e.Issued {
		q.bloom.Remove(cache.BlockAddr(e.Addr))
	}
}
