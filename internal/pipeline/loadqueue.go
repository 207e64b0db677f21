package pipeline

import (
	"vbmo/internal/core"
	"vbmo/internal/lsq"
	"vbmo/internal/reuse"
)

// loadTracker is the pipeline's side of the core's one load queue
// (DESIGN.md §26). It holds the queue, a core.LoadQueue of capacity
// LQSize with every in-flight load in program order, and tracks which
// of its loads completed: a done bit per load and a cursor at the
// oldest incomplete one answer issueLoad's prior-load condition with
// one comparison. Dispatch pushes each load, commit pops the head, a
// squash cuts the tail, and a completion marks its load. A baseline's
// associative queue reads the same window (DESIGN.md §27), so a load's
// handle addresses its CAM payload too.
type loadTracker struct {
	fifo core.LoadQueue
	// done holds the queued loads' done bits on the window's slots.
	done []bool
	// inc is the handle of the oldest incomplete load, or the queue's
	// tail when every queued load completed.
	inc lsq.Handle
}

func (t *loadTracker) init(capacity int) {
	t.fifo.Reset(capacity)
	t.done = reuse.Resized(t.done, t.fifo.Slots())
	t.inc = 0
}

// push queues a newly dispatched load and returns its handle. The queue
// must not be full.
//
//vbr:hotpath
func (t *loadTracker) push(tag int64) lsq.Handle {
	h := t.fifo.Push(tag)
	t.done[t.fifo.Slot(h)] = false
	return h
}

// pop drops the oldest load at its commit. A load commits only once it
// completed, so the cursor is already past it.
//
//vbr:hotpath
func (t *loadTracker) pop() { t.fifo.Pop() }

// complete marks the queued load with handle h done and, when it was
// the oldest incomplete load, moves the cursor past every done load
// after it.
//
//vbr:hotpath
func (t *loadTracker) complete(h lsq.Handle) {
	t.done[t.fifo.Slot(h)] = true
	if h != t.inc {
		return // an older load is still incomplete
	}
	for tail := t.fifo.Tail(); t.inc < tail && t.done[t.fifo.Slot(t.inc)]; {
		t.inc++
	}
}

// squash drops every load with tag >= fromTag and returns the handles
// [from, to) they held; the cursor stops at the new tail if it was past
// it.
func (t *loadTracker) squash(fromTag int64) (from, to lsq.Handle) {
	from, to = t.fifo.Squash(fromTag)
	t.inc = min(t.inc, from)
	return from, to
}

// hasBefore reports whether any incomplete load is older than tag.
//
//vbr:hotpath
func (t *loadTracker) hasBefore(tag int64) bool {
	return t.inc < t.fifo.Tail() && t.fifo.Tag(t.inc) < tag
}
