// Stage-skip readiness layer (DESIGN.md §14). The quiescence
// fast-forward (quiesce.go) only wins when a whole core goes idle; busy
// high-IPC regions still walked every stage of Step each cycle even
// when most stages provably had no work. This file holds the state that
// lets Step elide individual stage scans: a next-wake watermark for
// writeback (the earliest pending completion cycle), dirty/quiet flags
// for store-data capture and commit that are cleared by exactly the
// events that could give the stage work, and a wake cycle plus a
// settled-prefix cursor for the replay scan. Issue runs off the issue
// queue's ready mask (DESIGN.md §18). One predicate method per stage
// reads that state; Step and Quiescent both call them, so the
// fast-forward's idle test is "no stage would run". The contract is
// the fast-forward's: a skipped scan is precisely a scan that would
// have mutated nothing and counted nothing, so a run with skipping on
// is bit-identical — counters, stats, trace events, committed values —
// to one with it off. system.Options.NoStageSkip turns skipping off
// for A/B equivalence tests, not for correctness.

package pipeline

import "math"

// noDue is the "no deadline" sentinel of the writeback watermark and
// the replay wake cycle: only an event wakes the stage.
const noDue = int64(math.MaxInt64)

// SkipStats counts, per stage, the Step cycles whose stage scan the
// readiness layer elided. They live outside Stats — like the system's
// FFStats — so a skipping run's Result stays bit-identical to a
// non-skipping one while the skip rates remain observable.
type SkipStats struct {
	Writeback uint64 // cycles before the earliest pending completion
	Capture   uint64 // store-data list empty or provably blocked
	Commit    uint64 // ROB head provably unable to commit
	Replay    uint64 // replay scan asleep until its wake cycle or an event
	Issue     uint64 // no issue-queue entry was ready
	// ParkedProbes counts the parked loads a running issue scan charged
	// their recorded probe counts instead of searching the store queue
	// (DESIGN.md §18). It is not a stage scan, and, like every count
	// here, it stays zero with skipping off. The charges of skipped issue
	// stages and fast-forwarded cycles are left out: Issue and the
	// system's FFStats count those cycles.
	ParkedProbes uint64
}

// Add accumulates o into s (the system sums per-core skip stats).
func (s *SkipStats) Add(o SkipStats) {
	s.Writeback += o.Writeback
	s.Capture += o.Capture
	s.Commit += o.Commit
	s.Replay += o.Replay
	s.Issue += o.Issue
	s.ParkedProbes += o.ParkedProbes
}

// Total returns the sum over all stage scans (ParkedProbes is not one).
func (s *SkipStats) Total() uint64 {
	return s.Writeback + s.Capture + s.Commit + s.Replay + s.Issue
}

// SetStageSkip enables or disables the stage-skip readiness layer.
// Skipping is bit-identical to unconditional stage scans, so the
// switch exists for A/B equivalence runs, never for correctness.
func (c *Core) SetStageSkip(on bool) { c.skipOff = !on }

// The stage predicates: each of the first five reports whether Step,
// with skipping on, runs its stage this cycle, and fetchDue whether the
// fetch stage would access the instruction cache; Quiescent reads all
// six. A predicate may claim work the scan then does not find, never
// the reverse. replayDue applies on value-replay machines only.

func (c *Core) writebackDue() bool { return c.cycle >= c.wbMinDue }
func (c *Core) captureDue() bool   { return len(c.psd) > 0 && !c.psdQuiet }
func (c *Core) commitDue() bool    { return !c.commitQuiet }
func (c *Core) replayDue() bool    { return c.cycle >= c.replayWake }
func (c *Core) issueDue() bool     { return c.iqReady != 0 }
func (c *Core) fetchDue() bool {
	return c.cycle >= c.fetchStallUntil && c.fetchQ.Len() < c.cfg.FetchBuf
}
