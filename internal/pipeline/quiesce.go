// Quiescence detection for the system's cycle-skipping fast-forward
// (DESIGN.md §12). A core is quiescent when stepping it one cycle would
// change nothing observable except the deterministic per-cycle
// accounting: the cycle counter, the ROB-occupancy integral, and at
// most one dispatch stall counter. Quiescent proves that cycle by
// re-walking Step's stages read-only, in stage order, and vetoing on
// the first action any stage would take; FastForward then replicates
// the per-cycle accounting for a whole window of such cycles at once.
// The system composes the per-core predicate with the machine-level
// wake sources (DMA, deferred fault deliveries, watchdog deadlines,
// snapshot boundaries) in internal/system.

package pipeline

import (
	"math/bits"

	"vbmo/internal/isa"
)

// stallKind identifies which dispatch stall counter accrues once per
// cycle while the core is quiescent (stallNone when dispatch is idle:
// fetch buffer empty or its front not yet through the front end).
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

// wouldBeReady reports whether operand slot n is available, without
// srcReady's value latching: Quiescent must observe, never mutate. The
// latch itself is unobservable (a producer's result is immutable once
// done/resultReady), so mirroring only the readiness test is exact.
// The issue queue's ready mask is checked against it in tests.
func (e *entry) wouldBeReady(n int) bool {
	var p *entry
	var reads bool
	if n == 1 {
		p, reads = e.src1, e.reads1
	} else {
		p, reads = e.src2, e.reads2
	}
	if !reads || p == nil {
		return true
	}
	return p.done || p.resultReady
}

// Quiescent reports whether stepping the core this cycle would be a
// no-op apart from the deterministic per-cycle accounting FastForward
// replicates. When quiescent, wake is the earliest future cycle at
// which the core might act again (noWake when it is inert until an
// external event), and the dispatch stall kind of the window is
// recorded for FastForward. The walk mirrors Step's stage order; every
// check is read-only.
//
//vbr:hotpath
func (c *Core) Quiescent() (wake int64, ok bool) {
	now := c.cycle
	wake = noWake

	// Writeback: a due completion mutates; a future one schedules a
	// wake at its completion cycle.
	for _, e := range c.pend.entries {
		if e.done {
			continue
		}
		if e.doneCycle <= now {
			return noWake, false
		}
		if wake < 0 || e.doneCycle < wake {
			wake = e.doneCycle
		}
	}

	// Store data capture: removal (dataDone) and capture (operand 2
	// ready) both mutate. A blocked capture's wake is its data
	// producer's completion, which the pending list above covers.
	for _, e := range c.psd {
		if e.dataDone || e.wouldBeReady(2) {
			return noWake, false
		}
	}

	// Commit: a done head commits — except a replay-machine load still
	// awaiting its replay verdict, where commit returns untouched and
	// the replay scan below owns the wake.
	if c.rob.Len() > 0 {
		h := c.rob.At(0)
		if h.done && !(h.isLoad && c.eng != nil && !h.replayedOK) {
			return noWake, false
		}
	}

	// Replay & compare stages (value-replay machines).
	if c.eng != nil {
		w, quiet := c.replayQuiescent(now)
		if !quiet {
			return noWake, false
		}
		if w >= 0 && (wake < 0 || w < wake) {
			wake = w
		}
	}

	// Issue: only a ready entry can act, and one the issue stage would
	// act on vetoes the cycle.
	for m := c.iqReady; m != 0; m &= m - 1 {
		if c.issueWould(c.iq[bits.TrailingZeros64(m)]) {
			return noWake, false
		}
	}

	// Dispatch: either idle (front-end empty or front not ready, with
	// its ready cycle as wake), deterministically stalled (one stall
	// counter accrues per cycle; record which), or it would dispatch.
	c.ffStall = stallNone
	if c.fetchQ.Len() > 0 {
		f := c.fetchQ.Front()
		if f.readyCycle > now {
			if wake < 0 || f.readyCycle < wake {
				wake = f.readyCycle
			}
		} else {
			needIQ := f.cls != isa.ClassNop && f.cls != isa.ClassMembar
			switch {
			case c.dispatchBarrier >= 0:
				c.ffStall = stallBarrier
			case c.rob.Len() >= c.cfg.ROBSize:
				c.ffStall = stallROB
			case needIQ && c.IQLen() >= c.cfg.IQSize:
				c.ffStall = stallIQ
			case f.cls == isa.ClassLoad && c.lqFull():
				c.ffStall = stallLQ
			case f.cls == isa.ClassStore && c.sq.Full():
				c.ffStall = stallSQ
			default:
				return noWake, false // the front instruction would dispatch
			}
		}
	}

	// Fetch: stalled-with-deadline wakes at the deadline; a non-full
	// fetch buffer means an instruction-cache access (which mutates
	// cache state and counters) would happen.
	if now < c.fetchStallUntil {
		if wake < 0 || c.fetchStallUntil < wake {
			wake = c.fetchStallUntil
		}
	} else if c.fetchQ.Len() < c.cfg.FetchBuf {
		return noWake, false
	}
	return wake, true
}

// replayQuiescent walks the replay window exactly as replayStage does,
// read-only: the filter decision, a replay issue, and a due compare
// completion all mutate; an in-flight compare wakes at its completion
// cycle (in-order completion makes the first one the earliest).
func (c *Core) replayQuiescent(now int64) (int64, bool) {
	depth := c.cfg.ReplayWindow
	if n := c.rob.Len(); depth > n {
		depth = n
	}
	wake := noWake
	pending := false // an older in-flight compare defers younger ones
	for i := 0; i < depth; i++ {
		e := c.rob.At(i)
		if e.isStore {
			break // constraint 1 stops the replay scan at a store
		}
		if !e.isLoad || e.replayedOK {
			continue
		}
		if !e.loadDone {
			break // in-order: nothing younger replays; pend holds the wake
		}
		if !e.replayDecided {
			return noWake, false // the filter decision mutates engine state
		}
		if !e.replayIssued {
			if c.cfg.ReplayPerCycle <= 0 {
				break // no replay port: deterministically stalled
			}
			// In a quiescent candidate cycle no store committed, so the
			// commit-stage port is free and the replay would issue.
			return noWake, false
		}
		if now >= e.replayCycle && !pending {
			return noWake, false // the compare would complete
		}
		if !pending {
			wake = e.replayCycle
		}
		pending = true
	}
	return wake, true
}

// issueWould reports whether the issue stage would act on e, a ready
// issue-queue entry, this cycle: issue it, or — for a load — probe the
// dependence predictor and store queue, both of which count their
// lookups even when the load ends up blocked. In a quiescent candidate
// cycle nothing has issued, so every class has its full unit budget;
// only a class with no units at all cannot act.
func (c *Core) issueWould(e *entry) bool {
	switch e.cls {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassStore:
		return c.cfg.IntALU > 0
	case isa.ClassIntMul, isa.ClassIntDiv:
		return c.cfg.IntMulDiv > 0
	case isa.ClassFPALU:
		return c.cfg.FPALU > 0
	case isa.ClassFPMul, isa.ClassFPDiv:
		return c.cfg.FPMulDiv > 0
	case isa.ClassLoad:
		return c.cfg.LoadPorts > 0
	}
	return false
}

// lqFull reports whether the load queue (FIFO on replay machines,
// associative on baselines) is at capacity.
func (c *Core) lqFull() bool {
	if c.eng != nil {
		return c.eng.Queue.Full()
	}
	return c.alq.Full()
}

// FastForward advances the core n cycles without stepping it. The
// caller must have established via Quiescent (with no intervening
// Step or external event) that every skipped cycle is a no-op apart
// from the deterministic per-cycle accounting replicated here: the
// cycle counter, the ROB-occupancy integral, and the dispatch stall
// counter Quiescent recorded.
//
//vbr:hotpath
func (c *Core) FastForward(n int64) {
	c.cycle += n
	c.Stats.Cycles += n
	c.Stats.ROBOccupancySum += uint64(n) * uint64(c.rob.Len())
	k := uint64(n)
	switch c.ffStall {
	case stallBarrier:
		c.Stats.StallBarrier += k
	case stallROB:
		c.Stats.StallROB += k
	case stallIQ:
		c.Stats.StallIQ += k
	case stallLQ:
		c.Stats.StallLQ += k
	case stallSQ:
		c.Stats.StallSQ += k
	}
}
