package lsq

import (
	"slices"

	"vbmo/internal/reuse"
)

// Handle addresses one entry of a Window-backed queue: the entry's
// insertion sequence number, which the queue hands out at Insert and the
// pipeline records for the entry's lifetime. Handles are a type of their
// own so a tag cannot be passed where a handle is meant.
type Handle int64

// Window is the storage discipline every in-order queue of the core
// shares (DESIGN.md §21): the store queue, the associative load queue
// and the pipeline's load queue (§26). The queued entries, oldest first,
// occupy one contiguous run of a buffer twice the queue's capacity, and
// the entry with handle h sits at index lo + (h - head) for as long as
// it is queued. Commit pops the head and a squash truncates the tail, so
// neither moves an entry. Only a push that finds the run at the buffer's
// end moves it back to the front (Rebase): one copy of at most a full
// queue per capacity pushes.
//
// The Window keeps the entries' tags, which Push checks are increasing,
// so a squash finds its cut by binary search. An owner keeps each payload
// field in a parallel array of 2 × capacity elements indexed like the
// tags, and moves those arrays whenever Rebase moves the tags.
//
// Handles are dense: Reset starts them at zero, each Push takes the next
// one, and a squash rewinds the tail, so the next Push reuses the first
// squashed handle. An entry that leaves by Pop therefore has as its
// handle the number of entries popped before it. For the store queue
// that is a store's commit ordinal, which the consistency checker uses
// as the store's identity (DESIGN.md §24).
type Window struct {
	tags []int64
	head Handle // handle of the oldest entry
	lo   int    // buffer index of the oldest entry
	n    int
	cap  int
}

// Reset empties w at the given capacity, reusing its buffer when it
// fits. Handles start again from zero.
func (w *Window) Reset(capacity int) {
	*w = Window{tags: reuse.Resized(w.tags, 2*capacity), cap: capacity}
}

// Len returns the number of queued entries.
func (w *Window) Len() int { return w.n }

// Full reports whether the queue is at capacity.
func (w *Window) Full() bool { return w.n >= w.cap }

// Bounds returns the buffer indices [lo, hi) of the queued entries,
// oldest first.
func (w *Window) Bounds() (lo, hi int) { return w.lo, w.lo + w.n }

// Tags returns the queued entries' tags, oldest first; element j is the
// entry at buffer index lo + j.
func (w *Window) Tags() []int64 { return w.tags[w.lo : w.lo+w.n] }

// Head returns the oldest entry's handle.
func (w *Window) Head() Handle { return w.head }

// Tail returns the handle the next Push hands out: one past the
// youngest entry's.
func (w *Window) Tail() Handle { return w.head + Handle(w.n) }

// Index returns the buffer index of the queued entry with handle h. A
// handle outside the queue is a pipeline bug, and panics.
//
//vbr:hotpath
func (w *Window) Index(h Handle) int {
	if uint64(h-w.head) >= uint64(w.n) {
		panic("lsq: handle not in the queue")
	}
	return w.lo + int(h-w.head)
}

// Tag returns the tag of the queued entry with handle h.
func (w *Window) Tag(h Handle) int64 { return w.tags[w.Index(h)] }

// OldestTag returns the oldest entry's tag, or -1 when the queue is
// empty.
func (w *Window) OldestTag() int64 {
	if w.n == 0 {
		return -1
	}
	return w.tags[w.lo]
}

// YoungestTag returns the youngest entry's tag, or -1 when the queue is
// empty.
func (w *Window) YoungestTag() int64 {
	if w.n == 0 {
		return -1
	}
	return w.tags[w.lo+w.n-1]
}

// HasOlderThan reports whether any queued entry is older than tag.
//
//vbr:hotpath
func (w *Window) HasOlderThan(tag int64) bool {
	return w.n > 0 && w.tags[w.lo] < tag
}

// Rebase must precede every Push. When the queued run has reached the
// buffer's end, it moves the tags to the front and returns the run's old
// start and length: the owner then copies each payload array's
// [from, from+n) to [0, n). Otherwise it returns n = 0 and moves
// nothing.
//
//vbr:hotpath
func (w *Window) Rebase() (from, n int) {
	if w.lo+w.n < len(w.tags) {
		return 0, 0
	}
	from, n = w.lo, w.n
	copy(w.tags, w.tags[from:from+n])
	w.lo = 0
	return from, n
}

// Push appends tag as the youngest entry and returns its handle and
// buffer index. The queue must not be full, Rebase must have run, and
// tags must increase.
//
//vbr:hotpath
func (w *Window) Push(tag int64) (Handle, int) {
	i := w.lo + w.n
	if w.n > 0 && w.tags[i-1] >= tag {
		panic("lsq: tags must be queued in program order")
	}
	w.tags[i] = tag
	h := w.head + Handle(w.n)
	w.n++
	return h, i
}

// Pop drops the oldest entry and returns the buffer index it held; its
// payload stays readable until the next Rebase.
//
//vbr:hotpath
func (w *Window) Pop() int {
	if w.n == 0 {
		panic("lsq: pop from an empty queue")
	}
	i := w.lo
	w.head++
	w.lo++
	w.n--
	return i
}

// Squash drops every entry whose tag is at least fromTag — the youngest
// ones — and returns the buffer indices [i, end) they held, whose
// payload stays readable until the next Rebase.
func (w *Window) Squash(fromTag int64) (i, end int) {
	keep, _ := slices.BinarySearch(w.Tags(), fromTag)
	i, end = w.lo+keep, w.lo+w.n
	w.n = keep
	return i, end
}
