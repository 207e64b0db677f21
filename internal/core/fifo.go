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

import (
	"vbmo/internal/lsq"
	"vbmo/internal/reuse"
)

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

// FIFOQueue is the non-associative load queue: an in-order buffer with
// no search port, so its capacity can scale with the reorder buffer.
//
// Loads are addressed by the handle Insert returns (lsq.Window,
// DESIGN.md §21): issue and the replay stage reach their entry in O(1),
// commit pops the head, and a squash truncates the tail. The entries
// sit in a preallocated array parallel to the window's tags.
type FIFOQueue struct {
	w       lsq.Window
	entries []FIFOEntry
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
	q.w.Reset(capacity)
	q.entries = reuse.Resized(q.entries, 2*capacity)
}

// Len returns the occupancy.
func (q *FIFOQueue) Len() int { return q.w.Len() }

// Full reports whether another load can dispatch.
func (q *FIFOQueue) Full() bool { return q.w.Full() }

// Window returns a copy of the queue's tag window, for invariant checks.
func (q *FIFOQueue) Window() lsq.Window { return q.w }

// Insert appends a load at dispatch, in program order, and returns its
// handle; it fails when the queue is full.
//
//vbr:hotpath
func (q *FIFOQueue) Insert(tag int64, pc uint64) (lsq.Handle, bool) {
	if q.w.Full() {
		return 0, false
	}
	if from, n := q.w.Rebase(); n > 0 {
		copy(q.entries, q.entries[from:from+n])
	}
	h, i := q.w.Push(tag)
	q.entries[i] = FIFOEntry{Tag: tag, PC: pc}
	return h, true
}

// At returns the entry of the load with handle h.
//
//vbr:hotpath
func (q *FIFOQueue) At(h lsq.Handle) *FIFOEntry {
	return &q.entries[q.w.Index(h)]
}

// Head returns the oldest entry, or nil.
func (q *FIFOQueue) Head() *FIFOEntry {
	if q.w.Len() == 0 {
		return nil
	}
	return q.At(q.w.Head())
}

// YoungestTag returns the youngest load's tag, or -1 when the queue is
// empty.
func (q *FIFOQueue) YoungestTag() int64 { return q.w.YoungestTag() }

// Pop removes the oldest load (at commit).
//
//vbr:hotpath
func (q *FIFOQueue) Pop() { q.w.Pop() }

// Squash removes every load with tag >= fromTag.
func (q *FIFOQueue) Squash(fromTag int64) { q.w.Squash(fromTag) }
