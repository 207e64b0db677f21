// Package pipeline implements the 15-stage, 8-wide out-of-order
// superscalar core of Table 3: fetch with combined branch prediction
// (stopping at the first taken branch per cycle), rename/dispatch into a
// 256-entry reorder buffer and 32-entry issue queue, dataflow issue to
// the Table 3 functional-unit pool, a store queue with forwarding, and
// in-order commit where stores write the L1 data cache. Memory ordering
// is enforced either by a conventional associative load queue (package
// lsq) or by value-based replay (package core), selected by the machine
// configuration.
package pipeline

import (
	"vbmo/internal/bpred"
	"vbmo/internal/consistency"
	"vbmo/internal/isa"
	"vbmo/internal/lsq"
	"vbmo/internal/reuse"
)

// entry is one reorder-buffer entry (a dynamic instruction in flight).
// Entries live in the pool's slab and are named by handle, never by
// pointer: the ROB ring, the issue-queue slots, the pending and
// store-data lists, the rename map and a consumer's operand producers
// all hold handles, so the entry holds no pointer and neither do they,
// and the collector neither scans this state nor fences its stores
// (DESIGN.md §23). A consumer is always younger than its producers, so
// a squash that frees a producer also frees every consumer naming it.
// Entries are recycled through a generation-tagged freelist (pool):
// every recycle bumps gen, and a consumer snapshots its producer's
// generation at rename, so a read through a stale handle — one that
// survived its producer's recycling, which the squash/unlink invariants
// forbid — is detected instead of silently reading the wrong
// instruction's result.
type entry struct {
	tag       int64
	pc        uint64
	inst      isa.Inst
	cls       isa.Class // inst.Class(), computed once at fetch
	writesReg bool      // inst.WritesReg(), computed once at dispatch

	// self is the entry's own handle, set as the pool hands it out.
	self handle

	// Dataflow. srcN is 0 when the operand was ready at dispatch (its
	// value is in srcNVal) or when the instruction does not read slot N.
	src1, src2   handle
	src1Gen      uint64 // src1's generation at rename
	src2Gen      uint64 // src2's generation at rename
	src1Val      uint64
	src2Val      uint64
	reads1       bool
	reads2       bool
	histSnapshot uint64 // branch-history state at fetch, for repair
	// consumers counts live references held by younger entries' srcN
	// handles: incremented at rename, decremented when a consumer
	// latches the value (srcReady), is squashed, or is unlinked. When it
	// is zero at commit, unlink's IQ+PSD scan is provably a no-op and
	// skipped.
	consumers int32

	// Issue-queue state (DESIGN.md §18). slot is the queue slot the
	// entry holds until it issues; waiting counts the distinct unfinished
	// producers of its issue operands. wakes is the producer side: the
	// slots of the queue entries waiting on this entry's completion.
	slot    uint8
	waiting uint8
	wakes   uint64

	// Scheduling state.
	issued bool
	done   bool
	// resultReady lets consumers read result before done (value
	// prediction delivers results at dispatch).
	resultReady bool
	doneCycle   int64
	result      uint64

	// Branch state.
	isBranch  bool
	predTaken bool
	meta      bpred.Meta
	taken     bool

	// Memory state.
	isLoad, isStore bool
	addr            uint64
	addrValid       bool
	value           uint64 // load premature value / store data
	forwardTag      int64
	loadDone        bool
	agenDone        bool // store address in the store queue
	dataDone        bool // store data in the store queue
	waitStoreTag    int64
	nus             bool // issued past an unresolved store address
	reordered       bool // issued while prior memory ops incomplete
	// qh is a load's handle in the load queue (FIFO or associative) or a
	// store's in the store queue; lth is a load's handle in the
	// incomplete-load tracker. Both are set at dispatch (DESIGN.md §21).
	qh, lth lsq.Handle

	// Provenance (consistency tracking): the identity of the store
	// whose value this load observed, sampled with the value.
	writer       consistency.Writer
	replayWriter consistency.Writer

	// Value prediction state.
	valuePredicted bool

	// Replay state (value-replay machines).
	replayDecided bool
	needReplay    bool
	replayIssued  bool
	replayCycle   int64
	replayValue   uint64
	replayedOK    bool
	noReplay      bool // forward-progress rule 3 mark

	// gen counts recyclings of this storage slot. It survives the pool's
	// zeroing and is never reset; see pool.get.
	gen uint64
}

// srcReady reports whether e's operand slot n is available and returns
// its value. On the first ready observation the value is latched into
// the entry and the producer handle dropped: a producer's result is
// immutable once done/resultReady (a mispredicted value reaches
// consumers only through a squash that kills them), so latching is
// invisible to results while sparing the issue loop's repeated scans a
// slab lookup per operand per cycle.
func (p *pool) srcReady(e *entry, n int) (uint64, bool) {
	var h handle
	var v uint64
	var gen uint64
	var reads bool
	if n == 1 {
		h, v, gen, reads = e.src1, e.src1Val, e.src1Gen, e.reads1
	} else {
		h, v, gen, reads = e.src2, e.src2Val, e.src2Gen, e.reads2
	}
	if !reads {
		return 0, true
	}
	if h == 0 {
		return v, true
	}
	pe := p.at(h)
	if pe.gen != gen {
		// The producer slot was recycled while this consumer still named
		// it. The squash and commit-time unlink invariants make this
		// unreachable; reaching it means the freelist would otherwise
		// have handed this consumer another instruction's result.
		panic("pipeline: consumer read a recycled producer entry")
	}
	if pe.done || pe.resultReady {
		v = pe.result
		pe.consumers--
		if n == 1 {
			e.src1 = 0
			e.src1Val = v
		} else {
			e.src2 = 0
			e.src2Val = v
		}
		return v, true
	}
	return 0, false
}

// handle names a pool entry: 1 + its slab index, or 0 for none.
type handle uint32

// pool is a generation-tagged freelist of entries. At most ROBSize
// entries are ever live (every entry is in the ROB), so the pool hands
// out entries from one contiguous slab and the cycle loop never
// allocates entry storage. Recycling bumps the entry's generation (see
// entry.gen); everything else is zeroed as get hands the entry out.
type pool struct {
	slab []entry
	next int      // slab[next:] has not been handed out since init
	free []handle // recycled entries, handed out first
}

// init arms the pool over a slab of n entries, reusing the current slab
// when it fits. The slab is not cleared: get zeroes each entry as it
// hands it out and keeps its generation counting up, so a handle that
// outlived an init still fails the stale-producer check.
func (p *pool) init(n int) {
	*p = pool{slab: reuse.Resized(p.slab, n), free: reuse.Empty(p.free, n)}
}

// at returns the entry h names; h must not be 0.
//
//vbr:hotpath
func (p *pool) at(h handle) *entry { return &p.slab[h-1] }

// get hands out a zeroed entry. The ROB caps live entries at the slab's
// size, so running out means an entry leaked.
func (p *pool) get() *entry {
	var h handle
	switch n := len(p.free); {
	case n > 0:
		h = p.free[n-1]
		p.free = p.free[:n-1]
	case p.next < len(p.slab):
		p.next++
		h = handle(p.next)
	default:
		panic("pipeline: entry pool exhausted")
	}
	e := p.at(h)
	gen := e.gen
	*e = entry{self: h, gen: gen + 1}
	return e
}

func (p *pool) put(e *entry) { p.free = append(p.free, e.self) }

// fetched is one instruction in the fetch-to-dispatch buffer.
type fetched struct {
	pc         uint64
	inst       isa.Inst
	cls        isa.Class // inst.Class(), computed once at fetch
	predTaken  bool
	meta       bpred.Meta
	hist       uint64
	readyCycle int64
}
