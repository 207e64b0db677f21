package core

import "vbmo/internal/lsq"

// LoadQueue is the paper's non-associative load queue: an in-order
// buffer with no search port, so its capacity can scale with the
// reorder buffer. It is each core's one load queue (DESIGN.md §26): the
// pipeline holds one on every machine, of capacity LQSize. It keeps
// only the loads' tags, in a lsq.Window ring (§21, §27): dispatch
// pushes, commit pops the head, and a squash truncates the tail. Its
// occupancy stalls dispatch, and its youngest tag anchors the filters'
// replay window. A baseline's associative queue reads the same window
// and keeps the CAM payload on its slots.
type LoadQueue struct {
	w lsq.Window
}

// Reset empties q at the given capacity, reusing its array when it
// fits. Handles start again from zero.
func (q *LoadQueue) Reset(capacity int) { q.w.Reset(capacity) }

// Len returns the occupancy.
func (q *LoadQueue) Len() int { return q.w.Len() }

// Full reports whether another load can dispatch.
func (q *LoadQueue) Full() bool { return q.w.Full() }

// Window returns the queue's window, which its readers must not change:
// the associative queue reads it, and the invariant checks.
func (q *LoadQueue) Window() *lsq.Window { return &q.w }

// Push appends a load at dispatch, in program order, and returns its
// handle. Dispatch stalls a load while the queue is full, so a push
// into a full queue is a pipeline bug, and panics.
//
//vbr:hotpath
func (q *LoadQueue) Push(tag int64) lsq.Handle {
	if q.w.Full() {
		panic("core: push into a full load queue")
	}
	h, _ := q.w.Push(tag)
	return h
}

// Pop removes the oldest load (at commit).
//
//vbr:hotpath
func (q *LoadQueue) Pop() { q.w.Pop() }

// Squash removes every load with tag >= fromTag and returns the
// handles [from, to) they held.
func (q *LoadQueue) Squash(fromTag int64) (from, to lsq.Handle) { return q.w.Squash(fromTag) }

// Tail returns the handle the next Push hands out: one past the
// youngest load's.
func (q *LoadQueue) Tail() lsq.Handle { return q.w.Tail() }

// Tag returns the tag of the queued load with handle h. A handle
// outside the queue panics.
//
//vbr:hotpath
func (q *LoadQueue) Tag(h lsq.Handle) int64 { return q.w.Tag(h) }

// YoungestTag returns the youngest load's tag, or -1 when the queue is
// empty.
func (q *LoadQueue) YoungestTag() int64 { return q.w.YoungestTag() }
