// The quiescence fast-forward (DESIGN.md §12): when every unfinished
// core is idle-stable — ROB empty or stalled-deterministic, LSQ
// drained or waiting on scheduled completions, no due replay compare,
// nothing to issue, dispatch, or fetch — and no machine-level event is
// due, Advance jumps the cycle counter to the earliest scheduled wake
// event instead of stepping through dead cycles one by one. The skip
// is bit-identical to plain stepping: the per-core predicate
// (pipeline.Core.Quiescent) vetoes any cycle that would mutate
// anything beyond the deterministic per-cycle accounting, and the
// window is capped by every machine-level wake source — the next DMA
// burst, the next deferred fault delivery, the watchdog's deadlock and
// storm-scan deadlines, the next metrics snapshot, and the run's cycle
// bound.

package system

// ffProbeIdle is how many consecutive commit-less cycles Advance waits
// before probing for quiescence. A committing cycle is never quiescent,
// and transient commit gaps (a blocked head with the pipeline still
// filling) fail the probe anyway; the small delay keeps the probe off
// the busy path so fast-forward costs nothing when it cannot help.
const ffProbeIdle = 4

// FFStats reports fast-forward activity over a run's lifetime.
type FFStats struct {
	// Windows is the number of quiescent windows skipped.
	Windows int64 `json:"windows"`
	// SkippedCycles is the total cycles fast-forwarded (already included
	// in CycleNum and every core's Stats.Cycles).
	SkippedCycles int64 `json:"skipped_cycles"`
	// Probes is the number of per-core Quiescent calls made looking for
	// a window, successful or not.
	Probes int64 `json:"probes"`
}

// FastForwardStats returns the run's fast-forward accounting (zero when
// the skip never engaged or was disabled).
func (s *System) FastForwardStats() FFStats { return s.ff }

// tryFastForward attempts one quiescence skip. It returns true after
// jumping the machine (cores fast-forwarded, CycleNum advanced) to the
// earliest wake event, and false when any unfinished core is not
// quiescent or an event is due this cycle. Finished cores (committed
// past target) are not stepped by Advance and are likewise neither
// consulted nor advanced here.
//
//vbr:hotpath
func (s *System) tryFastForward(target uint64, maxCycles int64) bool {
	now := s.CycleNum
	w := maxCycles
	if s.DMA != nil && s.DMA.Interval > 0 {
		next := s.DMA.NextAt()
		if next <= now {
			return false // a DMA burst fires this cycle
		}
		if next < w {
			w = next
		}
	}
	if s.Faults != nil {
		if due, ok := s.Faults.NextDue(); ok {
			if due <= now {
				return false // a deferred message delivers this cycle
			}
			if due < w {
				w = due
			}
		}
	}
	if s.wd != nil {
		// The watchdog's deadlock check and storm scan run on exact
		// cycles and mutate its state; skip to just before each so the
		// normal loop executes them at the same cycle it always would.
		if d := s.wd.lastCommit + s.wd.window - 1; d < w {
			w = d
		}
		if d := s.wd.nextStormScan - 1; d < w {
			w = d
		}
	}
	if s.snapInterval > 0 {
		// The next snapshot fires when the post-increment cycle count
		// reaches a multiple of the interval; stop one short so the
		// normal loop takes the sample.
		next := (now/s.snapInterval+1)*s.snapInterval - 1
		if next < w {
			w = next
		}
	}
	if w <= now {
		return false
	}
	for _, c := range s.Cores {
		if c.Stats.Committed >= target {
			continue
		}
		s.ff.Probes++
		wake, ok := c.Quiescent()
		if !ok {
			return false
		}
		if wake >= 0 && wake < w {
			w = wake
		}
	}
	n := w - now
	if n <= 0 {
		return false
	}
	for _, c := range s.Cores {
		if c.Stats.Committed < target {
			c.FastForward(n)
		}
	}
	s.CycleNum = w
	s.ff.Windows++
	s.ff.SkippedCycles += n
	return true
}
