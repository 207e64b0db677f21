// Package lsq implements the load/store queue microarchitecture of
// Section 2: a store queue with store-to-load forwarding and unresolved-
// address tracking, and the three conventional associative load-queue
// designs the paper describes — snooping, insulated, and Power4-style
// hybrid — with CAM-search accounting for the §5.3 power model. The
// core's own load queue, the paper's non-associative FIFO, is
// core.LoadQueue; the associative queue keeps only its CAM payload and
// reads that queue's Window. Each queue's entries sit in a Window ring
// under one Handle per entry, so only the modelled CAM searches scan.
//
// Tags are reorder-buffer sequence numbers: monotonically increasing,
// never reused within a run, so tag order is program order.
package lsq

import "vbmo/internal/reuse"

// SearchResult reports a store-queue search by a load.
type SearchResult struct {
	// Latency is the forwarding latency in cycles (0 = the fast path;
	// a two-level queue reports its level-two latency for deep
	// matches — Akkary et al.'s hierarchical store queue).
	Latency int
	// Match is true when an older store with a resolved, equal address
	// was found; MatchTag/MatchHandle/Data/DataReady describe the
	// youngest such store.
	Match    bool
	MatchTag int64
	// MatchHandle is the matching store's handle, which is its commit
	// ordinal if it commits (see Window).
	MatchHandle Handle
	Data        uint64
	DataReady   bool
	// UnresolvedOlder is true when some older store that could alias
	// (younger than the match, or any older store if no match) has an
	// unresolved address — the condition the no-unresolved-store
	// filter records.
	UnresolvedOlder bool
	// Level2 is set when a two-level search crossed into the level-two
	// buffer and probed it (L2Searches). Filtered is set instead when
	// the membership filter ended the search at the crossing, which it
	// consults only while no store is unresolved (L2Filtered).
	Level2, Filtered bool
}

// StoreQueue holds in-flight stores in program order. Optionally it is
// hierarchical (Akkary et al., "Checkpoint processing and recovery",
// MICRO 2003 — cited in the paper's §1): a small fast level-one queue
// holds the most recent stores; older stores live in a larger, slower
// level-two buffer whose lookups are avoided by a membership filter
// when no resolved older store can match.
//
// Stores are addressed by the handle Insert returns (DESIGN.md §21):
// agen and data capture write their entry in O(1), commit pops the
// head, and a squash truncates the tail. Internally the queue is
// struct-of-arrays (DESIGN.md §12): the fields every Search touches for
// every entry — tag, resolved address, and the resolved bit — live in
// dense parallel arrays the scan walks without loading the cold data,
// which is only read on a match. All arrays are preallocated; steady
// state never grows them, and a store's payload sits at its Window slot
// in each of them.
type StoreQueue struct {
	w Window // the tags, and the slot of every handle
	// Hot scan state, on the Window's slots.
	addrs  []uint64
	addrOK []bool
	// Cold payload, on the same slots.
	data   []uint64
	dataOK []bool

	Stats SQStats

	// Two-level mode (l1Size 0 = flat queue). Only a two-level queue
	// uses its filter; Reset keeps it for EnableTwoLevel to reuse.
	l1Size     int
	l2Latency  int
	filter     *BloomFilter
	unresolved int // stores whose address is not yet known
}

// SQStats are a store queue's counters.
type SQStats struct {
	// Searches counts associative lookups (loads probing for
	// forwarding). L2Searches counts those that probed the level-two
	// buffer, L2Filtered those the membership filter ended instead.
	Searches, L2Searches, L2Filtered uint64
	// Compared counts the entries Peek compared: host work, not a
	// modelled count (pipeline.WorkStats.SQCompares).
	Compared uint64
}

// EnableTwoLevel makes the queue hierarchical: the newest l1Size
// stores are the fast level-one queue; matches found deeper incur
// l2Latency cycles; a membership filter of filterCounters counters
// skips level-two probes that cannot match.
func (q *StoreQueue) EnableTwoLevel(l1Size, l2Latency, filterCounters int) {
	q.l1Size = l1Size
	q.l2Latency = l2Latency
	q.filter = reuse.Ptr(q.filter)
	q.filter.Reset(filterCounters, 2)
}

// NewStoreQueue creates a queue with the given capacity.
func NewStoreQueue(capacity int) *StoreQueue {
	q := new(StoreQueue)
	q.Reset(capacity)
	return q
}

// Reset rebuilds q in place as NewStoreQueue(capacity) would build it —
// empty, flat, counters zero — reusing its arrays when they fit. The
// filter of an earlier EnableTwoLevel is kept for the next one to reuse.
func (q *StoreQueue) Reset(capacity int) {
	w := q.w
	w.Reset(capacity)
	n := w.Slots()
	*q = StoreQueue{
		w:      w,
		addrs:  reuse.Resized(q.addrs, n),
		addrOK: reuse.Resized(q.addrOK, n),
		data:   reuse.Resized(q.data, n),
		dataOK: reuse.Resized(q.dataOK, n),
		filter: q.filter,
	}
}

// Len returns the current occupancy.
func (q *StoreQueue) Len() int { return q.w.Len() }

// Full reports whether another store can be inserted.
func (q *StoreQueue) Full() bool { return q.w.Full() }

// Insert adds a store at dispatch and returns its handle. Tags must
// arrive in increasing order. Dispatch stalls a store while the queue
// is full, so an insert into a full queue is a pipeline bug, and
// panics.
//
//vbr:hotpath
func (q *StoreQueue) Insert(tag int64) Handle {
	if q.w.Full() {
		panic("lsq: insert into a full store queue")
	}
	h, i := q.w.Push(tag)
	q.addrs[i], q.addrOK[i] = 0, false
	q.data[i], q.dataOK[i] = 0, false
	q.unresolved++
	return h
}

// SetAddr records the resolved effective address of the store with
// handle h (agen).
//
//vbr:hotpath
func (q *StoreQueue) SetAddr(h Handle, addr uint64) {
	i := q.w.Index(h)
	if !q.addrOK[i] {
		q.unresolved--
		if q.l1Size > 0 {
			q.filter.Insert(addr &^ 7)
		}
	}
	q.addrs[i] = addr
	q.addrOK[i] = true
}

// SetData records the data operand of the store with handle h.
//
//vbr:hotpath
func (q *StoreQueue) SetData(h Handle, data uint64) {
	i := q.w.Index(h)
	q.data[i] = data
	q.dataOK[i] = true
}

// AwaitsAddr reports whether the store with the given tag is still
// queued with its address unresolved, found by binary search: a
// store-set wait names its store by tag, and ends when the store's
// address resolves or the store leaves the queue.
func (q *StoreQueue) AwaitsAddr(tag int64) bool {
	h := q.w.find(tag)
	i := q.w.Slot(h)
	return h != q.w.Tail() && q.w.tags[i] == tag && !q.addrOK[i]
}

// Search probes for the youngest older store matching addr, as a load
// issuing with the given tag would, and counts the probe: Searches, and
// in two-level mode L2Searches or L2Filtered as the result's Level2 and
// Filtered report.
//
//vbr:hotpath
func (q *StoreQueue) Search(addr uint64, loadTag int64) SearchResult {
	r := q.Peek(addr, loadTag)
	q.Stats.Searches++
	if r.Level2 {
		q.Stats.L2Searches++
	}
	if r.Filtered {
		q.Stats.L2Filtered++
	}
	return r
}

// Charge counts searches a caller answered from an earlier Search
// instead of repeating it: searches Searches, l2 of them crossing into
// level two. None of them may have been filtered.
func (q *StoreQueue) Charge(searches, l2 uint64) {
	q.Stats.Searches += searches
	q.Stats.L2Searches += l2
}

// TwoLevel reports whether the queue is hierarchical (EnableTwoLevel).
func (q *StoreQueue) TwoLevel() bool { return q.l1Size > 0 }

// Peek is Search without counting: it reads the queue and reports what
// a Search would find and count. Only the host-work count
// Stats.Compared moves. Word (8-byte) granularity. In two-level mode a
// match found beyond the level-one region reports the level-two
// latency, and the level-two probe is skipped entirely when the
// membership filter proves no resolved store there can match (and no
// unresolved store could alias).
//
//vbr:hotpath
func (q *StoreQueue) Peek(addr uint64, loadTag int64) SearchResult {
	addr &^= 7
	var r SearchResult
	w := &q.w
	tags, head, mask := w.tags, w.head, w.mask
	addrs, addrOK := q.addrs[:len(tags)], q.addrOK[:len(tags)]
	// The walk crosses into the level-two buffer at l2From, the
	// youngest store behind the newest l1Size; a flat queue has none.
	l2From := head - 1
	if q.l1Size > 0 {
		l2From = w.Tail() - 1 - Handle(q.l1Size)
	}
	// The walk goes from the youngest store to the oldest.
	for h := w.Tail() - 1; h >= head; h-- {
		if h == l2From {
			// Crossing into the level-two buffer: consult the filter
			// once. With no unresolved stores anywhere and a filter
			// miss, nothing deeper can match or alias.
			if q.unresolved == 0 && !q.filter.MayContain(addr) {
				r.Filtered = true
				return r
			}
			r.Level2 = true
		}
		i := int(h & mask)
		q.Stats.Compared++
		if tags[i] >= loadTag {
			continue
		}
		if !addrOK[i] {
			r.UnresolvedOlder = true
			continue
		}
		if addrs[i]&^7 == addr {
			r.Match = true
			r.MatchTag = tags[i]
			r.MatchHandle = h
			r.Data = q.data[i]
			r.DataReady = q.dataOK[i]
			if r.Level2 { // the match lies past the level-one boundary
				r.Latency = q.l2Latency
			}
			break
		}
	}
	return r
}

// UnresolvedBefore reports whether any store older than tag has an
// unresolved address.
func (q *StoreQueue) UnresolvedBefore(tag int64) bool {
	w := &q.w
	for h, tail := w.head, w.Tail(); h < tail; h++ {
		i := w.Slot(h)
		if w.tags[i] >= tag {
			break
		}
		if !q.addrOK[i] {
			return true
		}
	}
	return false
}

// OldestTag returns the tag of the oldest in-flight store, or -1.
func (q *StoreQueue) OldestTag() int64 { return q.w.OldestTag() }

// HasOlderThan reports whether any store older than tag is in flight.
//
//vbr:hotpath
func (q *StoreQueue) HasOlderThan(tag int64) bool { return q.w.HasOlderThan(tag) }

// Window returns a copy of the queue's tag window, for invariant checks.
func (q *StoreQueue) Window() Window { return q.w }

// Filter returns a two-level queue's membership filter, nil for a flat
// queue, for invariant checks; the caller must not change it.
func (q *StoreQueue) Filter() *BloomFilter {
	if q.l1Size == 0 {
		return nil
	}
	return q.filter
}

// Unresolved returns the number of queued stores whose address is
// unresolved, for invariant checks.
func (q *StoreQueue) Unresolved() int { return q.unresolved }

// Pop removes the oldest store (at commit, after its cache write).
//
//vbr:hotpath
func (q *StoreQueue) Pop() {
	q.drop(q.w.Pop())
}

// Squash removes every store with tag >= fromTag.
func (q *StoreQueue) Squash(fromTag int64) {
	from, to := q.w.Squash(fromTag)
	for h := from; h < to; h++ {
		q.drop(q.w.Slot(h))
	}
}

// drop maintains the unresolved count and membership filter as the
// entry at slot i leaves the queue.
func (q *StoreQueue) drop(i int) {
	if !q.addrOK[i] {
		q.unresolved--
	} else if q.l1Size > 0 {
		q.filter.Remove(q.addrs[i] &^ 7)
	}
}
