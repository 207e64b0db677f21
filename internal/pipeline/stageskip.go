// Stage-skip readiness layer (DESIGN.md §14). The quiescence
// fast-forward (quiesce.go) only wins when a whole core goes idle; busy
// high-IPC regions still walked every stage of Step each cycle even
// when most stages provably had no work. This file holds the state that
// lets Step elide individual stage scans: a next-wake watermark for
// writeback (the earliest pending completion cycle), dirty/quiet flags
// for store-data capture and commit that are cleared by exactly the
// events that could give the stage work, and a settled-prefix cursor
// for the replay scan. Issue runs off the issue queue's ready mask
// (DESIGN.md §18). The contract is the same as the
// fast-forward's: a skipped scan is precisely a scan that would have
// mutated nothing and counted nothing, so a run with skipping on is
// bit-identical — counters, stats, trace events, committed values — to
// one with it off. The -stageskip=off escape hatch exists for A/B
// equivalence tests and measurement, not for correctness.

package pipeline

import "math"

// noDue is the writeback watermark's "no pending completion" sentinel.
const noDue = int64(math.MaxInt64)

// SkipStats counts, per stage, the Step cycles whose stage scan the
// readiness layer elided. They live outside Stats — like the system's
// FFStats — so a skipping run's Result stays bit-identical to a
// non-skipping one while the skip rates remain observable.
type SkipStats struct {
	Writeback uint64 // cycles before the earliest pending completion
	Capture   uint64 // store-data list empty or provably blocked
	Commit    uint64 // ROB head provably unable to commit
	Replay    uint64 // replay window fully settled past the cursor
	Issue     uint64 // no issue-queue entry was ready
}

// Add accumulates o into s (the system sums per-core skip stats).
func (s *SkipStats) Add(o SkipStats) {
	s.Writeback += o.Writeback
	s.Capture += o.Capture
	s.Commit += o.Commit
	s.Replay += o.Replay
	s.Issue += o.Issue
}

// Total returns the sum over all stages.
func (s *SkipStats) Total() uint64 {
	return s.Writeback + s.Capture + s.Commit + s.Replay + s.Issue
}

// SetStageSkip enables or disables the stage-skip readiness layer.
// Skipping is bit-identical to unconditional stage scans, so the
// switch exists for A/B equivalence runs, never for correctness.
func (c *Core) SetStageSkip(on bool) { c.skipOff = !on }

// loadTracker holds the tags of ROB-resident loads whose premature
// execution has not yet completed, sorted ascending. Dispatch appends
// (tags are monotone), completion and squash remove, so "is any older
// load still incomplete?" — issueLoad's prior-memory-incomplete
// condition — is one comparison against the oldest tracked tag instead
// of a walk over the ROB. A residue bitset would not do here: squashes
// leave gaps in the ROB's tag sequence, so the live tag window is
// unbounded and tag-mod-capacity indexing aliases.
type loadTracker struct {
	tags []int64
}

func (t *loadTracker) init(robSize int) {
	t.tags = t.tags[:0]
	if cap(t.tags) < robSize {
		t.tags = make([]int64, 0, robSize)
	}
}

// add records a newly dispatched load. Tags arrive in increasing order,
// so appending keeps the list sorted. The backing array holds ROBSize
// tags — the most that can ever be in flight — so the append never
// grows it.
//
//vbr:hotpath
func (t *loadTracker) add(tag int64) {
	t.tags = append(t.tags, tag) //vbr:allow hotalloc capacity preallocated to ROB size in init
}

// remove drops tag from the list if present (a squashed load may have
// completed already, in which case it was removed at completion).
// Loads complete roughly in order, so the binary search usually lands
// near the front and the shift is short.
//
//vbr:hotpath
func (t *loadTracker) remove(tag int64) {
	lo, hi := 0, len(t.tags)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.tags[mid] < tag {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.tags) && t.tags[lo] == tag {
		copy(t.tags[lo:], t.tags[lo+1:])
		t.tags = t.tags[:len(t.tags)-1]
	}
}

// hasBefore reports whether any tracked (incomplete) load is older
// than tag. Every tracked tag belongs to a ROB-resident load, so no
// lower bound is needed.
//
//vbr:hotpath
func (t *loadTracker) hasBefore(tag int64) bool {
	return len(t.tags) > 0 && t.tags[0] < tag
}
