// Package core implements the paper's primary contribution: value-based
// memory ordering (Cain & Lipasti, ISCA 2004). It replaces the
// associative load queue with a plain FIFO (no CAM, no search ports) and
// enforces both uniprocessor RAW dependences and multiprocessor memory
// consistency by re-executing selected loads in program order just
// before commit and comparing the replayed value against the premature
// value. Four filtering heuristics keep the replay rate near 0.02 per
// committed instruction:
//
//   - no-unresolved-store (NUS): replay loads that issued past an older
//     store with an unresolved address (uniprocessor RAW safety);
//   - no-reorder: replay loads that issued while prior memory operations
//     were incomplete (the only filter that is sound in isolation);
//   - no-recent-miss (NRM): replay loads that were in the instruction
//     window when a block entered the local hierarchy from an external
//     source (incoming constraint-graph edge);
//   - no-recent-snoop (NRS): replay loads that were in the window when an
//     external invalidation was observed (outgoing WAR edge).
//
// NRM and NRS must each be paired with NUS (paper §3.3); the Engine
// enforces that composition.
//
// The FIFO load queue, LoadQueue, holds only the loads' program order;
// the pipeline keeps one per core, on every machine. Each load's
// premature value and filter flags live in the pipeline's reorder-buffer
// entry, the one record of an in-flight load; the replay stage hands the
// Engine a Load built from that entry, and the youngest queued load's
// tag when an external event opens the window.
package core

import (
	"fmt"

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
	// Filtered counts loads whose replay was filtered out.
	Filtered uint64
	// Mismatches counts replay values that differed from the premature
	// value (each causes a squash).
	Mismatches uint64
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

	flag   bool
	ageTag int64

	Stats Stats
}

// NewEngine creates a replay engine with the given filter.
func NewEngine(f Filter) *Engine {
	e := new(Engine)
	e.Reset(f)
	return e
}

// Reset rebuilds e in place as NewEngine would build it.
func (e *Engine) Reset(f Filter) { *e = Engine{Filter: f} }

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

// Load is what the replay stage knows of one load when it reaches the
// stage: its age, its premature value and the issue-time conditions the
// filters test. The pipeline builds it from the load's reorder-buffer
// entry.
type Load struct {
	Tag int64
	// Value is the premature (out-of-order) load value.
	Value uint64
	// NUS is set when the load issued while an older store's address
	// was unresolved (the no-unresolved-store filter's trigger).
	NUS bool
	// Reordered is set when the load issued while prior memory
	// operations were incomplete (the no-reorder filter's trigger).
	Reordered bool
	// NoReplay implements forward-progress rule 3: a dynamic load that
	// already caused a replay squash is not replayed again.
	NoReplay bool
	// ValuePredicted marks loads whose consumers ran on a predicted
	// value; such loads must always replay — the compare stage is
	// their verification (and what keeps value prediction consistent
	// in multiprocessors; paper §1).
	ValuePredicted bool
}

// Decide decides whether the load must replay, per the active filter,
// and gives the decision's provenance: which filter demanded the
// replay, or why it was skipped, as a trace reason. It must be called
// exactly once per load reaching the replay stage (it maintains the
// statistics used by Figure 6).
func (e *Engine) Decide(ld Load) (bool, trace.Reason) {
	e.Stats.LoadsSeen++
	if ld.NoReplay {
		// Rule 3: a load that already caused a replay squash must not
		// replay again, ensuring forward progress under contention.
		e.Stats.Rule3Skips++
		return false, trace.RRule3
	}
	if ld.ValuePredicted {
		// Value-predicted loads are verified by the compare stage;
		// no filter may skip them.
		return true, trace.RVPredVerify
	}
	replay, why := false, trace.RFiltered
	switch e.Filter {
	case ReplayAll:
		replay, why = true, trace.RReplayAll
	case NoReorder:
		if ld.Reordered {
			replay, why = true, trace.RReordered
		}
	case NoRecentMiss, NoRecentSnoop:
		// Composition rule (§3.3): replay if either the RAW filter or
		// the consistency filter demands it. The RAW condition is
		// reported first so Figure 6's RAW-needed attribution matches.
		switch {
		case ld.NUS:
			replay, why = true, trace.RNUS
		case e.flag:
			replay, why = true, trace.RWindow
		}
	case NUSOnly:
		if ld.NUS {
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
func (e *Engine) OnReplayComplete(ld Load, replayValue uint64) (squash bool) {
	e.Stats.Replays++
	if ld.NUS {
		e.Stats.ReplaysNUS++
	}
	e.closeWindow(ld.Tag)
	if replayValue == ld.Value {
		return false
	}
	e.Stats.Mismatches++
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
	if e.flag && e.ageTag >= fromTag {
		// The flagged load died. Keep the window open but anchor it at
		// the squash point: the first surviving/refetched load at or
		// past this tag closes it. (Conservative: may force a few
		// extra replays, never fewer.)
		e.ageTag = fromTag
	}
}
