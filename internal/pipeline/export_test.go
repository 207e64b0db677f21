package pipeline

import (
	"fmt"
	"math/bits"

	"vbmo/internal/lsq"
)

// issueProducers returns the producers e still reads its issue operands
// through (0 for an operand latched or read at dispatch): operand 1,
// and operand 2 for the ALU classes only.
func issueProducers(e *entry) (p1, p2 handle) {
	if issuesOnBoth(e.cls) {
		return e.src1, e.src2
	}
	return e.src1, 0
}

// wouldBeReady reports whether e's operand slot n is available, without
// srcReady's value latching, so CheckIQ only reads the core.
func (p *pool) wouldBeReady(e *entry, n int) bool {
	var h handle
	var reads bool
	if n == 1 {
		h, reads = e.src1, e.reads1
	} else {
		h, reads = e.src2, e.reads2
	}
	if !reads || h == 0 {
		return true
	}
	pe := p.at(h)
	return pe.done || pe.resultReady
}

// loadAddr returns load e's effective address as issueLoad computes it,
// without srcReady's latching; e's address operand must be ready.
func (p *pool) loadAddr(e *entry) uint64 {
	var base uint64
	switch {
	case !e.reads1:
	case e.src1 != 0:
		base = p.at(e.src1).result
	default:
		base = e.src1Val
	}
	return e.inst.EffAddr(base)
}

// probeCount is what one load probe counts: a simple-predictor wait, a
// store-queue search, its crossing into level two, a filter query.
type probeCount struct{ wait, search, l2, filter bool }

// recorded returns the probe counts parked slot bit recorded.
func (p *parkCounts) recorded(bit uint64) probeCount {
	return probeCount{p.wait&bit != 0, p.search&bit != 0, p.l2&bit != 0, p.filter&bit != 0}
}

// reprobe runs issueLoad's blocking checks on load e read-only: it
// reports whether e would still be blocked if probed now, and what that
// probe would count.
func (c *Core) reprobe(e *entry) (bool, probeCount) {
	if e.waitStoreTag >= 0 {
		if se, ok := c.sq.Entry(e.waitStoreTag); ok && !se.AddrValid {
			return true, probeCount{}
		}
	}
	var k probeCount
	k.wait = c.ssets == nil && c.simple.Predicts(e.pc)
	if k.wait && c.sq.UnresolvedBefore(e.tag) {
		return true, k
	}
	r := c.sq.Peek(c.pool.loadAddr(e), e.tag)
	k.search, k.l2, k.filter = true, r.Level2, r.FilterQueried
	return r.Match && !r.DataReady, k
}

// CheckIQ recomputes the wake-up issue queue's state from the entries
// themselves, read-only, and reports the first disagreement: iqReady
// and iqParked must be disjoint and together hold exactly the occupied
// slots whose issue operands pass wouldBeReady; every parked slot must
// hold a load that a probe now would still find blocked and that would
// count exactly what the slot recorded, and no free or ready slot may
// carry a recorded count; Dump must mark exactly the parked entries;
// each entry's waiting count must equal its number of distinct
// unfinished issue-operand producers (each of which has the entry's
// slot in its wake mask), every wake-mask bit of every in-flight entry
// must name an occupied slot whose entry reads that producer, and IQLen
// must equal the number of occupied slots.
func (c *Core) CheckIQ() error {
	if both := c.iqReady & c.iqParked; both != 0 {
		return fmt.Errorf("slots %#x are both ready and parked", both)
	}
	pk := &c.parked
	if stray := (pk.wait | pk.search | pk.l2 | pk.filter) &^ c.iqParked; stray != 0 {
		return fmt.Errorf("slots %#x record probe counts but are not parked", stray)
	}
	occupied := 0
	for s := 0; s < MaxIQSize; s++ {
		h, bit := c.iq[s], uint64(1)<<s
		if h == 0 {
			if (c.iqUsed|c.iqReady|c.iqParked)&bit != 0 {
				return fmt.Errorf("free slot %d is marked used (%t), ready (%t) or parked (%t)",
					s, c.iqUsed&bit != 0, c.iqReady&bit != 0, c.iqParked&bit != 0)
			}
			continue
		}
		e := c.pool.at(h)
		occupied++
		switch {
		case c.iqUsed&bit == 0:
			return fmt.Errorf("slot %d holds tag %d but is not marked used", s, e.tag)
		case int(e.slot) != s:
			return fmt.Errorf("slot %d holds tag %d, which records slot %d", s, e.tag, e.slot)
		case e.issued:
			return fmt.Errorf("slot %d holds tag %d, which has issued", s, e.tag)
		}
		p1, p2 := issueProducers(e)
		ready := c.pool.wouldBeReady(e, 1) && (p2 == 0 || c.pool.wouldBeReady(e, 2))
		if ready != ((c.iqReady|c.iqParked)&bit != 0) {
			return fmt.Errorf("slot %d (tag %d): operands ready %t, ready bit %t, parked bit %t",
				s, e.tag, ready, c.iqReady&bit != 0, c.iqParked&bit != 0)
		}
		if c.iqParked&bit != 0 {
			if !e.isLoad {
				return fmt.Errorf("slot %d (tag %d, %s) is parked but not a load", s, e.tag, e.cls)
			}
			blocked, k := c.reprobe(e)
			if !blocked {
				return fmt.Errorf("slot %d (tag %d): parked load would issue if probed now", s, e.tag)
			}
			if rec := pk.recorded(bit); rec != k {
				return fmt.Errorf("slot %d (tag %d): parked load recorded counts %+v, a probe now counts %+v",
					s, e.tag, rec, k)
			}
		}
		unready := 0
		for i, ph := range [2]handle{p1, p2} {
			if ph == 0 || (i == 1 && ph == p1) {
				continue
			}
			p := c.pool.at(ph)
			if p.done || p.resultReady {
				continue
			}
			unready++
			if p.wakes&bit == 0 {
				return fmt.Errorf("slot %d (tag %d) waits on tag %d, whose wake mask %#x lacks it",
					s, e.tag, p.tag, p.wakes)
			}
		}
		if int(e.waiting) != unready {
			return fmt.Errorf("slot %d (tag %d): waiting %d, %d distinct unfinished producers",
				s, e.tag, e.waiting, unready)
		}
	}
	if occupied != c.IQLen() {
		return fmt.Errorf("IQLen %d, %d occupied slots", c.IQLen(), occupied)
	}
	for i := 0; i < c.rob.Len(); i++ {
		p := c.robAt(i)
		for m := p.wakes; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			if c.iq[s] == 0 {
				return fmt.Errorf("tag %d wakes free slot %d", p.tag, s)
			}
			e := c.pool.at(c.iq[s])
			if p1, p2 := issueProducers(e); p1 != p.self && p2 != p.self {
				return fmt.Errorf("tag %d wakes slot %d (tag %d), which does not read it",
					p.tag, s, e.tag)
			}
		}
	}
	if c.iqParked != 0 { // with none parked, Dump marks none
		return c.checkDumpParked()
	}
	return nil
}

// CheckLSQ checks the handle-addressed memory queues (DESIGN.md §21)
// against the ROB, read-only, and reports the first disagreement: the
// load queue (FIFO or associative) and the store queue hold exactly the
// ROB's loads and stores, oldest first; every ROB load's and store's
// queue handle addresses the entry holding its own tag; and the
// incomplete-load tracker holds exactly the ROB's loads from the oldest
// one that is not loadDone on, each reached by its tracker handle.
func (c *Core) CheckLSQ() error {
	var lq lsq.Window
	if c.eng != nil {
		lq = c.eng.Queue.Window()
	} else {
		lq = c.alq.Window()
	}
	queues := [2]struct {
		name string
		w    lsq.Window
		n    int // ROB entries of the queue's kind seen so far
	}{{name: "load queue", w: lq}, {name: "store queue", w: c.sq.Window()}}
	tr := c.loads.w
	tracked := 0 // ROB loads seen from the oldest incomplete one on
	for i := 0; i < c.rob.Len(); i++ {
		e := c.robAt(i)
		if !e.isLoad && !e.isStore {
			continue
		}
		q := &queues[0]
		if e.isStore {
			q = &queues[1]
		}
		if tags := q.w.Tags(); q.n >= len(tags) || tags[q.n] != e.tag {
			return fmt.Errorf("tag %d is %s %d of the ROB's, which holds tags %v", e.tag, q.name, q.n, tags)
		}
		q.n++
		if err := checkHandle(q.name, q.w, e.qh, e.tag); err != nil {
			return err
		}
		if e.isStore || (tracked == 0 && e.loadDone) {
			continue
		}
		if tags := tr.Tags(); tracked >= len(tags) || tags[tracked] != e.tag {
			return fmt.Errorf("load %d is tracked load %d, the tracker holds tags %v", e.tag, tracked, tags)
		}
		tracked++
		if err := checkHandle("load tracker", tr, e.lth, e.tag); err != nil {
			return err
		}
	}
	for _, q := range queues {
		if q.n != q.w.Len() {
			return fmt.Errorf("the ROB holds %d entries of the %s, which holds %d", q.n, q.name, q.w.Len())
		}
	}
	if tracked != tr.Len() {
		return fmt.Errorf("the tracker holds %d loads, %d ROB loads are from the oldest incomplete one on", tr.Len(), tracked)
	}
	return nil
}

// checkHandle reports whether handle h addresses an entry of w that
// holds tag.
func checkHandle(queue string, w lsq.Window, h lsq.Handle, tag int64) error {
	if h < w.Head() || h >= w.Tail() {
		return fmt.Errorf("tag %d: %s handle %d is outside [%d, %d)", tag, queue, h, w.Head(), w.Tail())
	}
	if got := w.Tag(h); got != tag {
		return fmt.Errorf("tag %d: %s handle %d addresses tag %d", tag, queue, h, got)
	}
	return nil
}

// checkDumpParked checks that Dump marks exactly the parked entries.
func (c *Core) checkDumpParked() error {
	parkedTags := map[int64]bool{}
	for m := c.iqParked; m != 0; m &= m - 1 {
		parkedTags[c.pool.at(c.iq[bits.TrailingZeros64(m)]).tag] = true
	}
	marked := 0
	for _, d := range c.Dump(0).ROB {
		if d.Parked != parkedTags[d.Tag] {
			return fmt.Errorf("Dump marks tag %d parked %t, its slot parked %t", d.Tag, d.Parked, !d.Parked)
		}
		if d.Parked {
			marked++
		}
	}
	if marked != len(parkedTags) {
		return fmt.Errorf("Dump marks %d entries parked, %d slots are", marked, len(parkedTags))
	}
	return nil
}

// StrandLoad parks a ready load that no in-flight store is older than,
// as a lost wake would leave it: only an older store's agen or data
// capture wakes a parked load on a baseline machine. It reports whether
// it found one.
func (c *Core) StrandLoad() bool {
	for m := c.iqReady; m != 0; m &= m - 1 {
		if e := c.pool.at(c.iq[bits.TrailingZeros64(m)]); e.isLoad && !c.sq.HasOlderThan(e.tag) {
			c.park(e, false, false, lsq.SearchResult{})
			return true
		}
	}
	return false
}

// SwapLoadHandles swaps the load-queue handles of the two oldest ROB
// loads, as a dispatch that recorded the wrong handle would, and reports
// whether it found two. A second call undoes the first.
func (c *Core) SwapLoadHandles() bool {
	var first *entry
	for i := 0; i < c.rob.Len(); i++ {
		if e := c.robAt(i); e.isLoad {
			if first == nil {
				first = e
				continue
			}
			first.qh, e.qh = e.qh, first.qh
			return true
		}
	}
	return false
}

// LoseWakeup drops one waiting queue entry's slot from the wake mask of
// a producer it waits on, as a wake-up bug would, and reports whether it
// found one. The entry then never becomes ready.
func (c *Core) LoseWakeup() bool {
	for m := c.iqUsed &^ (c.iqReady | c.iqParked); m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		p1, p2 := issueProducers(c.pool.at(c.iq[s]))
		for _, h := range [2]handle{p1, p2} {
			if h == 0 {
				continue
			}
			if p := c.pool.at(h); p.wakes&(1<<s) != 0 {
				p.wakes &^= 1 << s
				return true
			}
		}
	}
	return false
}
