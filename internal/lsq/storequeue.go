// Package lsq implements the load/store queue microarchitecture of
// Section 2: a store queue with store-to-load forwarding and unresolved-
// address tracking, and the three conventional associative load-queue
// designs the paper describes — snooping, insulated, and Power4-style
// hybrid — with CAM-search accounting for the §5.3 power model. The
// replay machine's non-associative FIFO load queue lives in package
// core, next to the replay engine that owns it.
//
// Tags are reorder-buffer sequence numbers: monotonically increasing,
// never reused within a run, so tag order is program order.
package lsq

import "vbmo/internal/reuse"

// StoreEntry is one in-flight store.
type StoreEntry struct {
	// Tag is the store's ROB sequence number (program order).
	Tag int64
	// PC is the store's program counter (for predictor training).
	PC uint64
	// Addr is the effective address, meaningful once AddrValid is set
	// by the store's address generation.
	Addr uint64
	// AddrValid marks stores whose address has resolved; unresolved
	// stores are what the no-unresolved-store filter watches for.
	AddrValid bool
	// Data is the store's value, meaningful once DataValid is set by
	// data capture (forwarding requires it).
	Data uint64
	// DataValid marks stores whose data operand has been captured.
	DataValid bool
}

// SearchResult reports a store-queue search by a load.
type SearchResult struct {
	// Latency is the forwarding latency in cycles (0 = the fast path;
	// a two-level queue reports its level-two latency for deep
	// matches — Akkary et al.'s hierarchical store queue).
	Latency int
	// Match is true when an older store with a resolved, equal address
	// was found; MatchTag/Data/DataReady describe the youngest such
	// store.
	Match     bool
	MatchTag  int64
	Data      uint64
	DataReady bool
	// MatchPC is the matching store's PC (for predictor training).
	MatchPC uint64
	// UnresolvedOlder is true when some older store that could alias
	// (younger than the match, or any older store if no match) has an
	// unresolved address — the condition the no-unresolved-store
	// filter records.
	UnresolvedOlder bool
}

// StoreQueue holds in-flight stores in program order. Optionally it is
// hierarchical (Akkary et al., "Checkpoint processing and recovery",
// MICRO 2003 — cited in the paper's §1): a small fast level-one queue
// holds the most recent stores; older stores live in a larger, slower
// level-two buffer whose lookups are avoided by a membership filter
// when no resolved older store can match.
//
// Internally the queue is struct-of-arrays (DESIGN.md §12): the fields
// every Search touches for every entry — tag, resolved address, and the
// resolved bit — live in dense parallel arrays the scan walks without
// loading the cold payload (PC, data), which is only read on a match.
// All arrays are preallocated to capacity; steady state never grows
// them. Indices align across all six arrays at all times.
type StoreQueue struct {
	// Hot scan state, one element per in-flight store, program order.
	tags   []int64
	addrs  []uint64
	addrOK []bool
	// Cold payload, parallel to the hot arrays.
	pcs    []uint64
	data   []uint64
	dataOK []bool

	cap int
	// Searches counts associative lookups (loads probing for
	// forwarding).
	Searches uint64

	// Two-level mode (0 = flat queue).
	l1Size     int
	l2Latency  int
	filter     *BloomFilter
	unresolved int // stores whose address is not yet known
	// L2Searches counts searches that had to probe the level-two
	// buffer; L2Filtered counts level-two probes avoided.
	L2Searches, L2Filtered uint64
}

// EnableTwoLevel makes the queue hierarchical: the newest l1Size
// stores are the fast level-one queue; matches found deeper incur
// l2Latency cycles; a membership filter of filterCounters counters
// skips level-two probes that cannot match.
func (q *StoreQueue) EnableTwoLevel(l1Size, l2Latency, filterCounters int) {
	q.l1Size = l1Size
	q.l2Latency = l2Latency
	q.filter = NewBloomFilter(filterCounters, 2)
}

// NewStoreQueue creates a queue with the given capacity.
func NewStoreQueue(capacity int) *StoreQueue {
	q := new(StoreQueue)
	q.Reset(capacity)
	return q
}

// Reset rebuilds q in place as NewStoreQueue(capacity) would build it —
// empty, flat, counters zero — reusing its arrays when they fit.
func (q *StoreQueue) Reset(capacity int) {
	*q = StoreQueue{
		cap:    capacity,
		tags:   reuse.Empty(q.tags, capacity),
		addrs:  reuse.Empty(q.addrs, capacity),
		addrOK: reuse.Empty(q.addrOK, capacity),
		pcs:    reuse.Empty(q.pcs, capacity),
		data:   reuse.Empty(q.data, capacity),
		dataOK: reuse.Empty(q.dataOK, capacity),
	}
}

// Len returns the current occupancy.
func (q *StoreQueue) Len() int { return len(q.tags) }

// Full reports whether another store can be inserted.
func (q *StoreQueue) Full() bool { return len(q.tags) >= q.cap }

// Insert adds a store at dispatch; it fails when the queue is full.
// Tags must arrive in increasing order.
func (q *StoreQueue) Insert(tag int64, pc uint64) bool {
	if q.Full() {
		return false
	}
	if n := len(q.tags); n > 0 && q.tags[n-1] >= tag {
		panic("lsq: store tags must be inserted in program order")
	}
	q.tags = append(q.tags, tag)
	q.addrs = append(q.addrs, 0)
	q.addrOK = append(q.addrOK, false)
	q.pcs = append(q.pcs, pc)
	q.data = append(q.data, 0)
	q.dataOK = append(q.dataOK, false)
	q.unresolved++
	return true
}

// findIdx returns the index of the store with the given tag, or -1.
func (q *StoreQueue) findIdx(tag int64) int {
	for i, t := range q.tags {
		if t == tag {
			return i
		}
	}
	return -1
}

// SetAddr records the store's resolved effective address (agen).
func (q *StoreQueue) SetAddr(tag int64, addr uint64) {
	if i := q.findIdx(tag); i >= 0 {
		if !q.addrOK[i] {
			q.unresolved--
			if q.filter != nil {
				q.filter.Insert(addr &^ 7)
			}
		}
		q.addrs[i] = addr
		q.addrOK[i] = true
	}
}

// SetData records the store's data operand.
func (q *StoreQueue) SetData(tag int64, data uint64) {
	if i := q.findIdx(tag); i >= 0 {
		q.data[i] = data
		q.dataOK[i] = true
	}
}

// Entry returns a copy of the entry with the given tag.
func (q *StoreQueue) Entry(tag int64) (StoreEntry, bool) {
	if i := q.findIdx(tag); i >= 0 {
		return StoreEntry{
			Tag: q.tags[i], PC: q.pcs[i],
			Addr: q.addrs[i], AddrValid: q.addrOK[i],
			Data: q.data[i], DataValid: q.dataOK[i],
		}, true
	}
	return StoreEntry{}, false
}

// Search probes for the youngest older store matching addr, as a load
// issuing with the given tag would. Word (8-byte) granularity. In
// two-level mode a match found beyond the level-one region reports the
// level-two latency, and the level-two probe is skipped entirely when
// the membership filter proves no resolved store there can match (and
// no unresolved store could alias).
//
//vbr:hotpath
func (q *StoreQueue) Search(addr uint64, loadTag int64) SearchResult {
	q.Searches++
	addr &^= 7
	var r SearchResult
	n := len(q.tags)
	l1Boundary := -1
	if q.l1Size > 0 {
		l1Boundary = n - q.l1Size
	}
	for i := n - 1; i >= 0; i-- {
		if q.l1Size > 0 && i < l1Boundary {
			// Crossing into the level-two buffer: consult the filter
			// once. With no unresolved stores anywhere and a filter
			// miss, nothing deeper can match or alias.
			if q.unresolved == 0 && q.filter != nil && !q.filter.MayContain(addr) {
				q.L2Filtered++
				return r
			}
			q.L2Searches++
			l1Boundary = -1 // count the crossing only once
		}
		if q.tags[i] >= loadTag {
			continue
		}
		if !q.addrOK[i] {
			r.UnresolvedOlder = true
			continue
		}
		if q.addrs[i]&^7 == addr {
			r.Match = true
			r.MatchTag = q.tags[i]
			r.MatchPC = q.pcs[i]
			r.Data = q.data[i]
			r.DataReady = q.dataOK[i]
			if q.l1Size > 0 && i < n-q.l1Size {
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
	for i, t := range q.tags {
		if t >= tag {
			break
		}
		if !q.addrOK[i] {
			return true
		}
	}
	return false
}

// OldestTag returns the tag of the oldest in-flight store, or -1.
func (q *StoreQueue) OldestTag() int64 {
	if len(q.tags) == 0 {
		return -1
	}
	return q.tags[0]
}

// HasOlderThan reports whether any store older than tag is in flight.
func (q *StoreQueue) HasOlderThan(tag int64) bool {
	return len(q.tags) > 0 && q.tags[0] < tag
}

// Remove deletes the store with the given tag (at commit, after its
// cache write).
func (q *StoreQueue) Remove(tag int64) {
	i := q.findIdx(tag)
	if i < 0 {
		return
	}
	q.dropAt(i)
	q.tags = append(q.tags[:i], q.tags[i+1:]...)
	q.addrs = append(q.addrs[:i], q.addrs[i+1:]...)
	q.addrOK = append(q.addrOK[:i], q.addrOK[i+1:]...)
	q.pcs = append(q.pcs[:i], q.pcs[i+1:]...)
	q.data = append(q.data[:i], q.data[i+1:]...)
	q.dataOK = append(q.dataOK[:i], q.dataOK[i+1:]...)
}

// Squash removes every store with tag >= fromTag.
func (q *StoreQueue) Squash(fromTag int64) {
	for i, t := range q.tags {
		if t >= fromTag {
			for j := i; j < len(q.tags); j++ {
				q.dropAt(j)
			}
			q.tags = q.tags[:i]
			q.addrs = q.addrs[:i]
			q.addrOK = q.addrOK[:i]
			q.pcs = q.pcs[:i]
			q.data = q.data[:i]
			q.dataOK = q.dataOK[:i]
			return
		}
	}
}

// dropAt maintains the unresolved count and membership filter as the
// entry at index i leaves the queue.
func (q *StoreQueue) dropAt(i int) {
	if !q.addrOK[i] {
		q.unresolved--
	} else if q.filter != nil {
		q.filter.Remove(q.addrs[i] &^ 7)
	}
}
