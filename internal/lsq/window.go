package lsq

import (
	"math/bits"

	"vbmo/internal/reuse"
)

// Handle addresses one entry of a Window-backed queue: the entry's
// insertion sequence number, which the queue hands out at Insert and the
// pipeline records for the entry's lifetime. Handles are a type of their
// own so a tag cannot be passed where a handle is meant.
type Handle int64

// Window is the storage discipline every in-order queue of the core
// shares (DESIGN.md §21, §27): the store queue and the core's load queue
// (§26), whose window a baseline's associative queue reads. It is a
// ring: the buffer's length is the power of two at or above the queue's
// capacity, and the entry with handle h sits at slot h & mask for as
// long as it is queued. Push writes the slot past the youngest entry,
// commit pops the head and a squash truncates the tail, so no operation
// moves an entry, and a popped or squashed entry stays readable in its
// slot until a Push reuses it.
//
// The Window keeps the entries' tags, which Push checks are increasing,
// so a squash finds its cut by binary search over the handles. An owner
// keeps each payload field in an array of Slots elements, indexed like
// the tags.
//
// Handles are dense: Reset starts them at zero, each Push takes the next
// one, and a squash rewinds the tail, so the next Push reuses the first
// squashed handle. An entry that leaves by Pop therefore has as its
// handle the number of entries popped before it. For the store queue
// that is a store's commit ordinal, which the consistency checker uses
// as the store's identity (DESIGN.md §24). At most capacity handles are
// queued at once, so no two queued entries share a slot.
type Window struct {
	tags []int64
	mask Handle // len(tags) - 1
	head Handle // handle of the oldest entry
	n    int
	cap  int
}

// Reset empties w at the given capacity, reusing its buffer when it
// fits. Handles start again from zero.
func (w *Window) Reset(capacity int) {
	n := 1 << bits.Len(uint(max(capacity, 1)-1))
	*w = Window{tags: reuse.Resized(w.tags, n), mask: Handle(n - 1), cap: capacity}
}

// Slots returns the ring's length, the length of every payload array.
func (w *Window) Slots() int { return len(w.tags) }

// Slot returns the ring slot of handle h, queued or not.
func (w *Window) Slot(h Handle) int { return int(h & w.mask) }

// Len returns the number of queued entries.
func (w *Window) Len() int { return w.n }

// Full reports whether the queue is at capacity.
func (w *Window) Full() bool { return w.n >= w.cap }

// Head returns the oldest entry's handle.
func (w *Window) Head() Handle { return w.head }

// Tail returns the handle the next Push hands out: one past the
// youngest entry's.
func (w *Window) Tail() Handle { return w.head + Handle(w.n) }

// Index returns the slot of the queued entry with handle h. A handle
// outside the queue is a pipeline bug, and panics.
//
//vbr:hotpath
func (w *Window) Index(h Handle) int {
	if uint64(h-w.head) >= uint64(w.n) {
		panic("lsq: handle not in the queue")
	}
	return int(h & w.mask)
}

// Tag returns the tag of the queued entry with handle h.
func (w *Window) Tag(h Handle) int64 { return w.tags[w.Index(h)] }

// OldestTag returns the oldest entry's tag, or -1 when the queue is
// empty.
func (w *Window) OldestTag() int64 {
	if w.n == 0 {
		return -1
	}
	return w.tags[w.head&w.mask]
}

// YoungestTag returns the youngest entry's tag, or -1 when the queue is
// empty.
func (w *Window) YoungestTag() int64 {
	if w.n == 0 {
		return -1
	}
	return w.tags[(w.Tail()-1)&w.mask]
}

// HasOlderThan reports whether any queued entry is older than tag.
//
//vbr:hotpath
func (w *Window) HasOlderThan(tag int64) bool {
	return w.n > 0 && w.tags[w.head&w.mask] < tag
}

// Push appends tag as the youngest entry and returns its handle and
// slot. The queue must not be full, and tags must increase.
//
//vbr:hotpath
func (w *Window) Push(tag int64) (Handle, int) {
	if w.n > 0 && w.tags[(w.Tail()-1)&w.mask] >= tag {
		panic("lsq: tags must be queued in program order")
	}
	h := w.Tail()
	i := int(h & w.mask)
	w.tags[i] = tag
	w.n++
	return h, i
}

// Pop drops the oldest entry and returns the slot it held.
//
//vbr:hotpath
func (w *Window) Pop() int {
	if w.n == 0 {
		panic("lsq: pop from an empty queue")
	}
	i := int(w.head & w.mask)
	w.head++
	w.n--
	return i
}

// Squash drops every entry whose tag is at least fromTag — the youngest
// ones — and returns the handles [from, to) they held.
func (w *Window) Squash(fromTag int64) (from, to Handle) {
	from, to = w.find(fromTag), w.Tail()
	w.n = int(from - w.head)
	return from, to
}

// find returns the handle of the oldest queued entry whose tag is at
// least tag, or the tail when there is none, by binary search over the
// handles.
func (w *Window) find(tag int64) Handle {
	lo, hi := w.head, w.Tail()
	for lo < hi {
		m := lo + (hi-lo)/2
		if w.tags[m&w.mask] < tag {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
