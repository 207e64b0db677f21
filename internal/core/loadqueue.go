package core

import "vbmo/internal/lsq"

// LoadQueue is the paper's non-associative load queue: an in-order
// buffer with no search port, so its capacity can scale with the
// reorder buffer. It is each core's one load queue (DESIGN.md §26): the
// pipeline holds one on every machine, of capacity LQSize. It is a
// lsq.Window ring of the loads' tags (§21, §27): dispatch pushes,
// commit pops the head, and a squash truncates the tail. Its occupancy
// stalls dispatch, and its youngest tag anchors the filters' replay
// window. A baseline's associative queue reads the same window and
// keeps the CAM payload on its slots. Only Push adds to the window's
// behaviour.
type LoadQueue struct {
	lsq.Window
}

// Push appends a load at dispatch, in program order, and returns its
// handle. Dispatch stalls a load while the queue is full, so a push
// into a full queue is a pipeline bug, and panics.
//
//vbr:hotpath
func (q *LoadQueue) Push(tag int64) lsq.Handle {
	if q.Full() {
		panic("core: push into a full load queue")
	}
	h, _ := q.Window.Push(tag)
	return h
}
