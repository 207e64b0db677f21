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

// LoadEntry is the CAM payload of one in-flight load in the associative
// queue; its tag (ROB sequence number) lives in the load queue's Window.
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
// §5.3 energy accounting. It keeps only the loads' CAM payload, on the
// slots of the core's load-queue Window that Reset hands it (DESIGN.md
// §27): that window's owner pushes, pops and cuts the loads, and the
// queue reads their tags, head and tail from it. Loads are addressed by
// their window handle; only the modelled CAM searches scan.
type AssocLoadQueue struct {
	mode    Mode
	w       *Window     // the load queue's window, read only
	entries []LoadEntry // on w's slots
	Stats   LQStats
	// bloom, when bloomOn, summarizes issued-load block addresses so
	// store-agen and snoop searches can skip the CAM when no issued
	// load can match (Sethumadhavan et al.; see bloom.go). Reset keeps
	// the filter, off, for EnableBloom to reuse.
	bloom   *BloomFilter
	bloomOn bool
	// Emit, when non-nil, receives trace events only the queue itself
	// can see — currently the hybrid design's snoop marks (KLQMark),
	// which defer a possible squash rather than causing one. The
	// pipeline wires it in SetTracer, filling in core and cycle.
	Emit func(kind trace.Kind, tag int64, pc, addr uint64)
}

// LQStats are an associative load queue's counters, for the Table 2 /
// §5.3 energy accounting. The squashes its searches find are the
// pipeline's (pipeline.Stats.SquashesRAW, SquashesInval and
// SquashesLoadIssue).
type LQStats struct {
	// Searches counts CAM search operations; SearchedEntries
	// accumulates occupancy over searches (energy scales with entries
	// searched).
	Searches, SearchedEntries uint64
	// BloomFiltered counts CAM searches avoided by the filter.
	BloomFiltered uint64
}

// NewAssocLoadQueue creates a queue of the given mode over the load
// queue's window w.
func NewAssocLoadQueue(mode Mode, w *Window) *AssocLoadQueue {
	q := new(AssocLoadQueue)
	q.Reset(mode, w)
	return q
}

// Reset rebuilds q in place as NewAssocLoadQueue would build it —
// unfiltered, Stats zero, no Emit hook — reusing its arrays. w must
// already be Reset to its capacity: the payload ring takes its slots.
func (q *AssocLoadQueue) Reset(mode Mode, w *Window) {
	*q = AssocLoadQueue{mode: mode, w: w,
		entries: reuse.Resized(q.entries, w.Slots()), bloom: q.bloom}
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

// Insert records the payload of the load with handle h, which the
// window has just queued at dispatch.
//
//vbr:hotpath
func (q *AssocLoadQueue) Insert(h Handle, pc uint64) {
	q.entries[q.w.Index(h)] = LoadEntry{PC: pc, ForwardTag: -1}
}

// Entry returns a copy of the payload of the queued load with handle h.
func (q *AssocLoadQueue) Entry(h Handle) LoadEntry { return q.entries[q.w.Index(h)] }

func (q *AssocLoadQueue) countSearch() {
	q.Stats.Searches++
	q.Stats.SearchedEntries += uint64(q.w.Len())
}

// OnIssue records the premature execution of the load with handle h
// and, in the insulated and hybrid designs, searches for younger
// already-issued loads to the same address that must squash (paper
// Figure 1(c)). It returns the oldest such violation, if any.
//
//vbr:hotpath
func (q *AssocLoadQueue) OnIssue(h Handle, addr uint64, forwardTag int64) (Squash, bool) {
	w := q.w
	e := &q.entries[w.Index(h)]
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
	tags, entries, mask := w.tags, q.entries[:len(w.tags)], w.mask
	for y, tail := h+1, w.Tail(); y < tail; y++ {
		i := int(y & mask)
		le := &entries[i]
		if !le.Issued || le.Addr != e.Addr {
			continue
		}
		if q.mode == Hybrid && !le.Marked {
			// Power4: only snoop-marked conflicts squash.
			continue
		}
		return Squash{Tag: tags[i], PC: le.PC}, true
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
		q.Stats.BloomFiltered++
		return Squash{}, false
	}
	q.countSearch()
	addr &^= 7
	w := q.w
	tags, entries, mask := w.tags, q.entries[:len(w.tags)], w.mask
	for h, tail := w.head, w.Tail(); h < tail; h++ {
		i := int(h & mask)
		le := &entries[i]
		if tags[i] <= storeTag || !le.Issued || le.Addr != addr {
			continue
		}
		if le.ForwardTag >= storeTag {
			// The load's value came from the resolving store itself or
			// from a younger one; no violation.
			continue
		}
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
		q.Stats.BloomFiltered++
		return Squash{}, false
	}
	q.countSearch()
	w := q.w
	tags, entries, mask := w.tags, q.entries[:len(w.tags)], w.mask
	for h, tail := w.head, w.Tail(); h < tail; h++ {
		i := int(h & mask)
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
		return Squash{Tag: tags[i], PC: le.PC}, true
	}
	return Squash{}, false
}

// Pop drops the payload of the oldest load at its commit. It must run
// before the window pops that load.
//
//vbr:hotpath
func (q *AssocLoadQueue) Pop() {
	q.unfilter(&q.entries[q.w.Index(q.w.head)])
}

// Squash drops the payload of the loads with handles [from, to), which
// the window's Squash has just cut.
func (q *AssocLoadQueue) Squash(from, to Handle) {
	for h := from; h < to; h++ {
		q.unfilter(&q.entries[q.w.Slot(h)])
	}
}

func (q *AssocLoadQueue) unfilter(e *LoadEntry) {
	if q.bloomOn && e.Issued {
		q.bloom.Remove(cache.BlockAddr(e.Addr))
	}
}
