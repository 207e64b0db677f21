package pipeline

import (
	"fmt"
	"math/bits"
)

// issueProducers returns the producers e still reads its issue operands
// through (nil for an operand latched or read at dispatch): operand 1,
// and operand 2 for the ALU classes only.
func issueProducers(e *entry) (p1, p2 *entry) {
	if issuesOnBoth(e.cls) {
		return e.src1, e.src2
	}
	return e.src1, nil
}

// CheckIQ recomputes the wake-up issue queue's state from the entries
// themselves, read-only, and reports the first disagreement: iqReady
// must hold exactly the occupied slots whose issue operands pass
// wouldBeReady, each entry's waiting count must equal its number of
// distinct unfinished issue-operand producers (each of which has the
// entry's slot in its wake mask), every wake-mask bit of every in-flight
// entry must name an occupied slot whose entry reads that producer, and
// IQLen must equal the number of occupied slots.
func (c *Core) CheckIQ() error {
	occupied := 0
	for s := 0; s < MaxIQSize; s++ {
		e, bit := c.iq[s], uint64(1)<<s
		if e == nil {
			if (c.iqUsed|c.iqReady)&bit != 0 {
				return fmt.Errorf("free slot %d is marked used (%t) or ready (%t)",
					s, c.iqUsed&bit != 0, c.iqReady&bit != 0)
			}
			continue
		}
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
		ready := e.wouldBeReady(1) && (p2 == nil || e.wouldBeReady(2))
		if ready != (c.iqReady&bit != 0) {
			return fmt.Errorf("slot %d (tag %d): operands ready %t, ready bit %t",
				s, e.tag, ready, c.iqReady&bit != 0)
		}
		unready := 0
		for i, p := range [2]*entry{p1, p2} {
			if p == nil || p.done || p.resultReady || (i == 1 && p == p1) {
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
		p := c.rob.At(i)
		for m := p.wakes; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			e := c.iq[s]
			if e == nil {
				return fmt.Errorf("tag %d wakes free slot %d", p.tag, s)
			}
			if p1, p2 := issueProducers(e); p1 != p && p2 != p {
				return fmt.Errorf("tag %d wakes slot %d (tag %d), which does not read it",
					p.tag, s, e.tag)
			}
		}
	}
	return nil
}

// LoseWakeup drops one waiting queue entry's slot from the wake mask of
// a producer it waits on, as a wake-up bug would, and reports whether it
// found one. The entry then never becomes ready.
func (c *Core) LoseWakeup() bool {
	for m := c.iqUsed &^ c.iqReady; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		p1, p2 := issueProducers(c.iq[s])
		for _, p := range [2]*entry{p1, p2} {
			if p != nil && p.wakes&(1<<s) != 0 {
				p.wakes &^= 1 << s
				return true
			}
		}
	}
	return false
}
