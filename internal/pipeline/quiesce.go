// Quiescence detection for the system's cycle-skipping fast-forward
// (DESIGN.md §12). A core is quiescent when stepping it one cycle would
// change nothing observable except the deterministic per-cycle
// accounting: the cycle counter, the ROB-occupancy integral, and at
// most one dispatch stall counter. Quiescent reads the stage-skip
// predicates (stageskip.go) rather than walking the stages again: a
// core is idle when Step would run no back-end stage and the front end
// can neither dispatch nor fetch. FastForward then replicates the
// per-cycle accounting for a whole window of such cycles at once. The
// system composes the per-core predicate with the machine-level wake
// sources (DMA, deferred fault deliveries, watchdog deadlines, snapshot
// boundaries) in internal/system.

package pipeline

// stallKind identifies which dispatch stall counter a cycle accrues:
// dispatch counts one, and a quiescent window one per cycle. stallNone
// counts nothing: the front would dispatch, or, in a quiescent window,
// dispatch is idle (fetch buffer empty or its front not yet through
// the front end).
type stallKind uint8

const (
	stallNone stallKind = iota
	stallBarrier
	stallROB
	stallIQ
	stallLQ
	stallSQ
)

// noWake is Quiescent's "no scheduled wake event" sentinel: the core is
// inert until an external event (or the run's cycle bound) arrives.
const noWake = int64(-1)

// Quiescent reports whether stepping the core this cycle would be a
// no-op apart from the deterministic per-cycle accounting FastForward
// replicates. When quiescent, wake is the earliest future cycle at
// which the core might act again (noWake when it is inert until an
// external event), and the dispatch stall kind of the window is
// recorded for FastForward; apart from that record, it only reads.
//
//vbr:hotpath
func (c *Core) Quiescent() (wake int64, ok bool) {
	// A back-end stage Step would run vetoes. Of the sleeping stages,
	// writeback and replay have deadlines; the rest wait on events,
	// which a quiescent window has none of.
	if c.writebackDue() || c.captureDue() || c.commitDue() || c.issueDue() {
		return noWake, false
	}
	wake = c.wbMinDue
	if c.eng != nil {
		if c.replayDue() {
			return noWake, false
		}
		wake = min(wake, c.replayWake)
	}

	// Dispatch: either idle (front-end empty or front not ready, with
	// its ready cycle as wake), deterministically stalled (one stall
	// counter accrues per cycle; record which), or it would dispatch.
	c.ffStall = stallNone
	if c.fetchQ.Len() > 0 {
		f := c.fetchQ.Front()
		if f.readyCycle > c.cycle {
			wake = min(wake, f.readyCycle)
		} else if c.ffStall = c.dispatchStall(f); c.ffStall == stallNone {
			return noWake, false // the front instruction would dispatch
		}
	}

	// Fetch would access the instruction cache, which mutates cache
	// state and counters; a fetch stalled with a deadline wakes there.
	if c.fetchDue() {
		return noWake, false
	}
	if c.cycle < c.fetchStallUntil {
		wake = min(wake, c.fetchStallUntil)
	}
	if wake == noDue {
		wake = noWake
	}
	return wake, true
}

// FastForward advances the core n cycles without stepping it. The
// caller must have established via Quiescent (with no intervening
// Step or external event) that every skipped cycle is a no-op apart
// from the deterministic per-cycle accounting replicated here: the
// cycle counter, the ROB-occupancy integral, the dispatch stall
// counter Quiescent recorded, and one charged probe per parked load
// per cycle, as each skipped issue stage would have charged.
//
//vbr:hotpath
func (c *Core) FastForward(n int64) {
	c.cycle += n
	c.Stats.Cycles += n
	c.Stats.ROBOccupancySum += uint64(n) * uint64(c.rob.Len())
	if c.iqParked != 0 {
		c.chargeParked(c.iqParked, uint64(n))
	}
	c.countStall(c.ffStall, uint64(n))
}
