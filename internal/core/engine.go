package core

import (
	"fmt"

	"vbmo/internal/reuse"
	"vbmo/internal/trace"
)

// Filter selects the replay-reduction configuration evaluated in the
// paper's Figure 5/6.
type Filter int

const (
	// ReplayAll replays every committed load (no filtering).
	ReplayAll Filter = iota
	// NoReorder replays only loads that issued while prior memory
	// operations were incomplete. Sound in isolation (paper §3.3).
	NoReorder
	// NoRecentMiss pairs the no-recent-miss consistency filter with the
	// no-unresolved-store RAW filter.
	NoRecentMiss
	// NoRecentSnoop pairs the no-recent-snoop consistency filter with
	// the no-unresolved-store RAW filter. The paper's best
	// configuration.
	NoRecentSnoop
	// NUSOnly is the no-unresolved-store filter in isolation. It is
	// deliberately unsound for multiprocessors (paper §3.3) and exists
	// so the constraint-graph checker can demonstrate why the filters
	// must be composed.
	NUSOnly
)

// String names the filter configuration.
func (f Filter) String() string {
	switch f {
	case ReplayAll:
		return "replay-all"
	case NoReorder:
		return "no-reorder"
	case NoRecentMiss:
		return "no-recent-miss"
	case NoRecentSnoop:
		return "no-recent-snoop"
	case NUSOnly:
		return "nus-only"
	}
	return fmt.Sprintf("filter(%d)", int(f))
}

// NeedsMissEvents reports whether the filter consumes external-fill
// notifications.
func (f Filter) NeedsMissEvents() bool { return f == NoRecentMiss }

// NeedsSnoopEvents reports whether the filter consumes external-
// invalidation (and castout) notifications.
func (f Filter) NeedsSnoopEvents() bool { return f == NoRecentSnoop }

// Stats counts the replay engine's events; the Figure 6 bandwidth
// breakdown and the §5.3 power model read these.
type Stats struct {
	// LoadsSeen counts loads that flowed through the replay stage.
	LoadsSeen uint64
	// Replays counts replay cache accesses performed.
	Replays uint64
	// ReplaysNUS counts replays required by the no-unresolved-store
	// condition (Figure 6's "RAW-needed" segment); the rest are
	// consistency-only replays.
	ReplaysNUS uint64
	// Comparisons counts word-sized value comparisons (equals Replays;
	// kept separate for the energy model's clarity).
	Comparisons uint64
	// Filtered counts loads whose replay was filtered out.
	Filtered uint64
	// Mismatches counts replay values that differed from the premature
	// value (each causes a squash).
	Mismatches uint64
	// MismatchesNUS counts mismatches on NUS-flagged loads
	// (uniprocessor RAW violations); the rest are consistency
	// violations.
	MismatchesNUS uint64
	// WindowEvents counts external events (snoops or misses, per the
	// filter) that opened a replay window.
	WindowEvents uint64
	// Rule3Skips counts replays suppressed by forward-progress rule 3.
	Rule3Skips uint64
}

// Engine is the value-based replay engine: it decides which loads must
// replay, tracks the external-event window of the no-recent-miss /
// no-recent-snoop filters, and classifies replay outcomes.
//
// The engine implements the paper's window mechanism literally (§3.1):
// an external event sets a "need-replay" flag and latches the age (tag)
// of the youngest load currently in the instruction window; every load
// reaching the replay stage while the flag is set must replay; when the
// latched load itself passes the replay stage the flag clears.
type Engine struct {
	// Filter is the active configuration.
	Filter Filter
	// Queue is the machine's FIFO load queue.
	Queue *FIFOQueue

	flag   bool
	ageTag int64

	Stats Stats
}

// NewEngine creates a replay engine with the given filter and load
// queue capacity.
func NewEngine(f Filter, lqCapacity int) *Engine {
	e := new(Engine)
	e.Reset(f, lqCapacity)
	return e
}

// Reset rebuilds e in place as NewEngine would build it, reusing its
// load queue's storage.
func (e *Engine) Reset(f Filter, lqCapacity int) {
	*e = Engine{Filter: f, Queue: reuse.Ptr(e.Queue)}
	e.Queue.Reset(lqCapacity)
}

// NoteExternalEvent records an external invalidation (no-recent-snoop)
// or external-source fill (no-recent-miss). youngestLoadTag is the tag
// of the youngest load in the instruction window at this moment; pass
// -1 when no load is in flight (the event then affects nothing).
func (e *Engine) NoteExternalEvent(youngestLoadTag int64) {
	if youngestLoadTag < 0 {
		return
	}
	e.Stats.WindowEvents++
	e.flag = true
	e.ageTag = youngestLoadTag
}

// WindowOpen reports whether the external-event replay window is open.
func (e *Engine) WindowOpen() bool { return e.flag }

// ShouldReplay decides whether the load must replay, per the active
// filter. It must be called exactly once per load reaching the replay
// stage (it maintains the statistics used by Figure 6).
func (e *Engine) ShouldReplay(en *FIFOEntry) bool {
	replay, _ := e.Decide(en)
	return replay
}

// Decide is ShouldReplay with the decision's provenance: which filter
// demanded the replay, or why it was skipped, as a trace reason. The
// same exactly-once contract applies (Decide and ShouldReplay maintain
// the same statistics; call one of them, once, per load).
func (e *Engine) Decide(en *FIFOEntry) (bool, trace.Reason) {
	e.Stats.LoadsSeen++
	if en.NoReplay {
		// Rule 3: a load that already caused a replay squash must not
		// replay again, ensuring forward progress under contention.
		e.Stats.Rule3Skips++
		return false, trace.RRule3
	}
	if en.ValuePredicted {
		// Value-predicted loads are verified by the compare stage;
		// no filter may skip them.
		return true, trace.RVPredVerify
	}
	replay, why := false, trace.RFiltered
	switch e.Filter {
	case ReplayAll:
		replay, why = true, trace.RReplayAll
	case NoReorder:
		if en.Reordered {
			replay, why = true, trace.RReordered
		}
	case NoRecentMiss, NoRecentSnoop:
		// Composition rule (§3.3): replay if either the RAW filter or
		// the consistency filter demands it. The RAW condition is
		// reported first so Figure 6's RAW-needed attribution matches.
		switch {
		case en.NUS:
			replay, why = true, trace.RNUS
		case e.flag:
			replay, why = true, trace.RWindow
		}
	case NUSOnly:
		if en.NUS {
			replay, why = true, trace.RNUS
		}
	}
	if !replay {
		e.Stats.Filtered++
	}
	return replay, why
}

// OnReplayComplete records the outcome of a replay: the re-executed
// value is compared with the premature value, and a mismatch means the
// premature load resolved its dependences incorrectly — the machine
// must squash everything younger. It returns true when a squash is
// required.
func (e *Engine) OnReplayComplete(en *FIFOEntry, replayValue uint64) (squash bool) {
	e.Stats.Replays++
	e.Stats.Comparisons++
	if en.NUS {
		e.Stats.ReplaysNUS++
	}
	en.Replayed = true
	e.closeWindow(en.Tag)
	if replayValue == en.Value {
		return false
	}
	e.Stats.Mismatches++
	if en.NUS {
		e.Stats.MismatchesNUS++
	}
	return true
}

// OnLoadPassedReplayStage must be called for loads that pass the replay
// stage without replaying (filtered loads), so the event window can
// close when the latched load drains.
func (e *Engine) OnLoadPassedReplayStage(tag int64) {
	e.closeWindow(tag)
}

func (e *Engine) closeWindow(tag int64) {
	if e.flag && tag >= e.ageTag {
		e.flag = false
	}
}

// OnSquash clears window state referring to squashed loads: if the
// latched youngest load was squashed, the window closes when any
// surviving older load (tag >= ageTag is then impossible) — instead we
// conservatively re-latch to the squash point so correctness never
// depends on a dead tag.
func (e *Engine) OnSquash(fromTag int64) {
	e.Queue.Squash(fromTag)
	if e.flag && e.ageTag >= fromTag {
		// The flagged load died. Keep the window open but anchor it at
		// the squash point: the first surviving/refetched load at or
		// past this tag closes it. (Conservative: may force a few
		// extra replays, never fewer.)
		e.ageTag = fromTag
	}
}

// ReplaysPerCommitted returns replays divided by committed instructions
// (the paper's headline 0.02 figure), given the commit count.
func (e *Engine) ReplaysPerCommitted(committed uint64) float64 {
	if committed == 0 {
		return 0
	}
	return float64(e.Stats.Replays) / float64(committed)
}
