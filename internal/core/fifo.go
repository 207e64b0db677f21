// Package core implements the paper's primary contribution: value-based
// memory ordering (Cain & Lipasti, ISCA 2004). It replaces the
// associative load queue with a plain FIFO (no CAM, no search ports) and
// enforces both uniprocessor RAW dependences and multiprocessor memory
// consistency by re-executing selected loads in program order just
// before commit and comparing the replayed value against the premature
// value. Four filtering heuristics keep the replay rate near 0.02 per
// committed instruction:
//
//   - no-unresolved-store (NUS): replay loads that issued past an older
//     store with an unresolved address (uniprocessor RAW safety);
//   - no-reorder: replay loads that issued while prior memory operations
//     were incomplete (the only filter that is sound in isolation);
//   - no-recent-miss (NRM): replay loads that were in the instruction
//     window when a block entered the local hierarchy from an external
//     source (incoming constraint-graph edge);
//   - no-recent-snoop (NRS): replay loads that were in the window when an
//     external invalidation was observed (outgoing WAR edge).
//
// NRM and NRS must each be paired with NUS (paper §3.3); the Engine
// enforces that composition.
package core

import "vbmo/internal/reuse"

// FIFOEntry is one in-flight load in the replay machine's load queue.
// Unlike the associative queue it stores the premature value — needed by
// the compare stage — but requires no address CAM.
type FIFOEntry struct {
	Tag  int64
	PC   uint64
	Addr uint64
	// Value is the premature (out-of-order) load value.
	Value  uint64
	Issued bool
	// Forwarded is true when the value came from the store queue.
	Forwarded bool
	// NUS is set when the load issued while an older store's address
	// was unresolved (the no-unresolved-store filter's trigger).
	NUS bool
	// Reordered is set when the load issued while prior memory
	// operations were incomplete (the no-reorder filter's trigger).
	Reordered bool
	// NoReplay implements forward-progress rule 3: a dynamic load that
	// already caused a replay squash is not replayed again.
	NoReplay bool
	// ValuePredicted marks loads whose consumers ran on a predicted
	// value; such loads must always replay — the compare stage is
	// their verification (and what keeps value prediction consistent
	// in multiprocessors; paper §1).
	ValuePredicted bool
	// Replayed is set once the load has passed the replay stage.
	Replayed bool
}

// FIFOQueue is the non-associative load queue: a simple in-order buffer
// with head/tail access only. Its capacity can scale with the reorder
// buffer because nothing in it is searched.
//
// The tags live in a dense parallel array (struct-of-arrays, DESIGN.md
// §12): Find, Remove and Squash scan one int64 per load instead of
// striding over the ten-word FIFOEntry payload, which is only touched
// for the entry actually addressed. Both slices are preallocated to
// capacity and their indices always align.
type FIFOQueue struct {
	tags    []int64
	entries []FIFOEntry
	cap     int
}

// NewFIFOQueue creates a queue with the given capacity.
func NewFIFOQueue(capacity int) *FIFOQueue {
	q := new(FIFOQueue)
	q.Reset(capacity)
	return q
}

// Reset rebuilds q in place as NewFIFOQueue(capacity) would build it,
// reusing its arrays when they fit.
func (q *FIFOQueue) Reset(capacity int) {
	*q = FIFOQueue{
		cap:     capacity,
		tags:    reuse.Empty(q.tags, capacity),
		entries: reuse.Empty(q.entries, capacity),
	}
}

// Len returns the occupancy.
func (q *FIFOQueue) Len() int { return len(q.tags) }

// Full reports whether another load can dispatch.
func (q *FIFOQueue) Full() bool { return len(q.tags) >= q.cap }

// Insert appends a load at dispatch, in program order.
func (q *FIFOQueue) Insert(tag int64, pc uint64) bool {
	if q.Full() {
		return false
	}
	if n := len(q.tags); n > 0 && q.tags[n-1] >= tag {
		panic("core: load tags must be inserted in program order")
	}
	q.tags = append(q.tags, tag)
	q.entries = append(q.entries, FIFOEntry{Tag: tag, PC: pc})
	return true
}

// Find returns the entry with the given tag, or nil.
//
//vbr:hotpath
func (q *FIFOQueue) Find(tag int64) *FIFOEntry {
	for i, t := range q.tags {
		if t == tag {
			return &q.entries[i]
		}
	}
	return nil
}

// Head returns the oldest entry, or nil.
func (q *FIFOQueue) Head() *FIFOEntry {
	if len(q.entries) == 0 {
		return nil
	}
	return &q.entries[0]
}

// Remove deletes the load with the given tag (at commit).
func (q *FIFOQueue) Remove(tag int64) {
	for i, t := range q.tags {
		if t == tag {
			q.tags = append(q.tags[:i], q.tags[i+1:]...)
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			return
		}
	}
}

// Squash removes every load with tag >= fromTag.
func (q *FIFOQueue) Squash(fromTag int64) {
	for i, t := range q.tags {
		if t >= fromTag {
			q.tags = q.tags[:i]
			q.entries = q.entries[:i]
			return
		}
	}
}
