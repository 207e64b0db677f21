package pipeline

import (
	"vbmo/internal/consistency"
	"vbmo/internal/reuse"
)

// This file holds the fixed-capacity ring buffers that keep the cycle
// loop allocation-free in steady state (DESIGN.md §9). The reorder
// buffer and the fetch-to-dispatch buffer are FIFOs that previously
// slid their backing arrays with `s = s[1:]` + append — a pattern that
// reallocates every ~capacity operations and kept the GC busy. Both are
// bounded by configuration (ROBSize, FetchBuf), so a ring over a
// preallocated array serves every access pattern they need: push-back,
// pop-front, random access by age, and truncate-from-back (squash).

// entryRing is a fixed-capacity FIFO of ROB entry handles. Index 0 is
// the oldest (next to commit); capacity is config.Machine.ROBSize,
// which dispatch enforces before every Push.
type entryRing struct {
	buf  []handle
	head int
	n    int
}

// init empties the ring at the given capacity, reusing its array when
// it fits. Stale slots need no clearing: Push overwrites each slot it
// fills.
func (r *entryRing) init(capacity int) {
	*r = entryRing{buf: reuse.Resized(r.buf, capacity)}
}

// Len returns the current occupancy.
func (r *entryRing) Len() int { return r.n }

// At returns the i-th oldest entry (0 = next to commit).
func (r *entryRing) At(i int) handle {
	idx := r.head + i
	if idx >= len(r.buf) {
		idx -= len(r.buf)
	}
	return r.buf[idx]
}

// Push appends a dispatched entry at the young end.
func (r *entryRing) Push(h handle) {
	idx := r.head + r.n
	if idx >= len(r.buf) {
		idx -= len(r.buf)
	}
	r.buf[idx] = h
	r.n++
}

// PopFront removes and returns the oldest entry (commit).
func (r *entryRing) PopFront() handle {
	h := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return h
}

// TruncateFrom drops entries [i, Len) — the squash path. The caller has
// already recycled the dropped entries.
func (r *entryRing) TruncateFrom(i int) { r.n = i }

// fetchRing is a fixed-capacity FIFO of fetched instructions (the
// fetch-to-dispatch buffer). Capacity is config.Machine.FetchBuf, which
// fetch enforces before every Push.
type fetchRing struct {
	buf  []fetched
	head int
	n    int
}

// init empties the buffer at the given capacity, reusing its array
// when it fits. Stale slots need no clearing: PushSlot zeroes each slot
// it hands out.
func (r *fetchRing) init(capacity int) {
	*r = fetchRing{buf: reuse.Resized(r.buf, capacity)}
}

// Len returns the current occupancy.
func (r *fetchRing) Len() int { return r.n }

// Front returns the oldest buffered instruction.
func (r *fetchRing) Front() *fetched { return &r.buf[r.head] }

// DropFront removes the oldest buffered instruction. Callers read it
// through Front first; dropping by head advance avoids copying the
// struct out of the ring.
func (r *fetchRing) DropFront() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// PushSlot appends one zeroed slot and returns it for in-place filling,
// sparing the caller a struct copy.
func (r *fetchRing) PushSlot() *fetched {
	idx := r.head + r.n
	if idx >= len(r.buf) {
		idx -= len(r.buf)
	}
	r.n++
	f := &r.buf[idx]
	*f = fetched{}
	return f
}

// Clear empties the buffer (squash redirect).
func (r *fetchRing) Clear() {
	r.head = 0
	r.n = 0
}

// writerRing is the ring-indexed table of recently committed store
// writer identities, replacing the map[int64]consistency.Writer + log
// slice the commit stage previously churned on every store. Stores
// commit in program order, so tags arrive strictly increasing and the
// window — the most recent `cap` committed stores, exactly the old
// map's eviction policy — stays sorted; Lookup is a binary search over
// the circular window. Only consistency-tracked runs (litmus, -sc)
// ever allocate one.
type writerRing struct {
	tags    []int64
	writers []consistency.Writer
	start   int // index of the oldest element
	n       int
}

func newWriterRing(capacity int) *writerRing {
	return &writerRing{
		tags:    make([]int64, capacity),
		writers: make([]consistency.Writer, capacity),
	}
}

// reset empties a ring of the given capacity for reuse; any other ring
// (or none) resets to nil, which allocates afresh on first use.
func (r *writerRing) reset(capacity int) *writerRing {
	if r == nil || len(r.tags) != capacity {
		return nil
	}
	r.start, r.n = 0, 0
	return r
}

// Push records a committed store's writer identity, evicting the oldest
// record once the window is full. Tags must arrive in increasing order
// (commit order guarantees this).
//
//vbr:hotpath
func (r *writerRing) Push(tag int64, w consistency.Writer) {
	if r.n == len(r.tags) {
		r.tags[r.start] = tag
		r.writers[r.start] = w
		r.start++
		if r.start == len(r.tags) {
			r.start = 0
		}
		return
	}
	idx := r.start + r.n
	if idx >= len(r.tags) {
		idx -= len(r.tags)
	}
	r.tags[idx] = tag
	r.writers[idx] = w
	r.n++
}

// Lookup returns the writer recorded for tag, if it is still inside the
// window. Safe on a nil ring (reports a miss).
//
//vbr:hotpath
func (r *writerRing) Lookup(tag int64) (consistency.Writer, bool) {
	if r == nil {
		return 0, false
	}
	lo, hi := 0, r.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		idx := r.start + mid
		if idx >= len(r.tags) {
			idx -= len(r.tags)
		}
		switch {
		case r.tags[idx] == tag:
			return r.writers[idx], true
		case r.tags[idx] < tag:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}
