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
//
// The FIFOQueue keeps only the loads' program order. Each load's
// premature value and filter flags live in the pipeline's
// reorder-buffer entry, the one record of an in-flight load; the replay
// stage hands the Engine a Load built from that entry.
package core

import "vbmo/internal/lsq"

// FIFOQueue is the non-associative load queue: an in-order buffer with
// no search port, so its capacity can scale with the reorder buffer.
// It holds only the loads' tags, in a lsq.Window (DESIGN.md §21):
// dispatch pushes, commit pops the head, and a squash truncates the
// tail. Its occupancy stalls dispatch, and its youngest tag anchors the
// filters' replay window.
type FIFOQueue struct {
	w lsq.Window
}

// NewFIFOQueue creates a queue with the given capacity.
func NewFIFOQueue(capacity int) *FIFOQueue {
	q := new(FIFOQueue)
	q.Reset(capacity)
	return q
}

// Reset rebuilds q in place as NewFIFOQueue(capacity) would build it,
// reusing its array when it fits.
func (q *FIFOQueue) Reset(capacity int) { q.w.Reset(capacity) }

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
func (q *FIFOQueue) Insert(tag int64) (lsq.Handle, bool) {
	if q.w.Full() {
		return 0, false
	}
	q.w.Rebase()
	h, _ := q.w.Push(tag)
	return h, true
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
