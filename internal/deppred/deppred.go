// Package deppred implements the two memory dependence predictors the
// paper compares:
//
//   - Simple: the Alpha 21264-style PC-indexed 1-bit table used by the
//     value-based replay machine. A set bit makes the load wait until all
//     prior store addresses are known. It needs only the load's PC to
//     train — which is all the replay mechanism can supply, since a value
//     mismatch does not identify the conflicting store (paper §3).
//
//   - StoreSets: the Chrysos & Emer store-set predictor used by the
//     baseline (4k-entry SSIT, 128-entry LFST, Table 3). It requires the
//     identity of the conflicting store to train, which the associative
//     load queue provides and value-based replay cannot.
package deppred

import "vbmo/internal/reuse"

// Simple is the PC-indexed 1-bit dependence predictor.
type Simple struct {
	bits []bool
	mask uint64
}

// NewSimple creates a table with the given entry count (power of two;
// the paper uses 4k).
func NewSimple(entries int) *Simple {
	s := new(Simple)
	s.Reset(entries)
	return s
}

// Reset rebuilds s in place as NewSimple would build it, reusing its
// table when it fits.
func (s *Simple) Reset(entries int) {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("deppred: entries must be a positive power of two")
	}
	*s = Simple{bits: reuse.Zeroed(s.bits, entries), mask: uint64(entries - 1)}
}

func (s *Simple) idx(pc uint64) uint64 { return (pc >> 2) & s.mask }

// Predicts reports whether the load at pc must wait for all prior
// store addresses to resolve before issuing.
func (s *Simple) Predicts(pc uint64) bool { return s.bits[s.idx(pc)] }

// TrainViolation records that the load at pc suffered a memory-order
// violation.
func (s *Simple) TrainViolation(pc uint64) { s.bits[s.idx(pc)] = true }

// StoreSets is the store-set predictor. Tags identify dynamic stores
// (reorder-buffer sequence numbers).
type StoreSets struct {
	ssit   []int32 // PC index -> store set id, -1 = invalid
	lfst   []int64 // store set id -> tag of last fetched in-flight store, -1 = none
	mask   uint64
	nextID int32
}

// NewStoreSets creates a predictor with the given SSIT and LFST sizes
// (powers of two / positive; the paper uses 4096 and 128).
func NewStoreSets(ssitEntries, lfstEntries int) *StoreSets {
	s := new(StoreSets)
	s.Reset(ssitEntries, lfstEntries)
	return s
}

// Reset rebuilds s in place as NewStoreSets would build it, reusing its
// tables when they fit.
func (s *StoreSets) Reset(ssitEntries, lfstEntries int) {
	if ssitEntries <= 0 || ssitEntries&(ssitEntries-1) != 0 {
		panic("deppred: SSIT entries must be a positive power of two")
	}
	if lfstEntries <= 0 {
		panic("deppred: LFST entries must be positive")
	}
	*s = StoreSets{
		ssit: reuse.Filled(s.ssit, ssitEntries, -1),
		lfst: reuse.Filled(s.lfst, lfstEntries, -1),
		mask: uint64(ssitEntries - 1),
	}
}

func (s *StoreSets) idx(pc uint64) uint64 { return (pc >> 2) & s.mask }

// ssidOf returns the store set id assigned to pc, or -1.
func (s *StoreSets) ssidOf(pc uint64) int32 { return s.ssit[s.idx(pc)] }

// StoreDispatched records an in-flight store: it becomes the last
// fetched store of its set. It returns the tag of the previous store in
// the set, which this store must (conservatively) order behind, or -1.
func (s *StoreSets) StoreDispatched(pc uint64, tag int64) int64 {
	ssid := s.ssidOf(pc)
	if ssid < 0 {
		return -1
	}
	prev := s.lfst[ssid]
	s.lfst[ssid] = tag
	return prev
}

// LoadDispatched returns the tag of the in-flight store the load at pc
// must wait for, or -1 if unconstrained.
func (s *StoreSets) LoadDispatched(pc uint64) int64 {
	ssid := s.ssidOf(pc)
	if ssid < 0 {
		return -1
	}
	return s.lfst[ssid]
}

// StoreRetired clears the LFST entry if it still names tag (the store
// has left the window).
func (s *StoreSets) StoreRetired(pc uint64, tag int64) {
	ssid := s.ssidOf(pc)
	if ssid >= 0 && s.lfst[ssid] == tag {
		s.lfst[ssid] = -1
	}
}

// TrainViolation merges the load and store into one store set using the
// standard store-set assignment rules.
func (s *StoreSets) TrainViolation(loadPC, storePC uint64) {
	li, si := s.idx(loadPC), s.idx(storePC)
	ls, ss := s.ssit[li], s.ssit[si]
	switch {
	case ls < 0 && ss < 0:
		// Allocate a new set id round-robin over the LFST.
		id := s.nextID
		s.nextID = (s.nextID + 1) % int32(len(s.lfst))
		s.ssit[li], s.ssit[si] = id, id
	case ls >= 0 && ss < 0:
		s.ssit[si] = ls
	case ls < 0 && ss >= 0:
		s.ssit[li] = ss
	case ls < ss:
		// Both assigned: merge to the smaller id (declining joins).
		s.ssit[si] = ls
	case ss < ls:
		s.ssit[li] = ss
	}
}

// SquashTag invalidates LFST entries naming stores younger than or equal
// to tag (called on pipeline squash so dead stores are not waited on).
func (s *StoreSets) SquashTag(tag int64) {
	for i, t := range s.lfst {
		if t >= tag {
			s.lfst[i] = -1
		}
	}
}
