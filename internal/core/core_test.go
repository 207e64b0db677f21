package core

import "testing"

func TestReplayAllReplaysEverything(t *testing.T) {
	e := NewEngine(ReplayAll)
	en := Load{Tag: 1}
	if !decide(e, en) {
		t.Error("replay-all must replay")
	}
	en2 := Load{Tag: 2, NUS: true, Reordered: true}
	if !decide(e, en2) {
		t.Error("replay-all must replay flagged loads too")
	}
	if e.Stats.LoadsSeen != 2 || e.Stats.Filtered != 0 {
		t.Errorf("stats: %+v", e.Stats)
	}
}

func TestNoReorderFilter(t *testing.T) {
	e := NewEngine(NoReorder)
	if decide(e, Load{Tag: 1}) {
		t.Error("in-order load must be filtered")
	}
	if !decide(e, Load{Tag: 2, Reordered: true}) {
		t.Error("reordered load must replay")
	}
	if e.Stats.Filtered != 1 {
		t.Errorf("Filtered = %d", e.Stats.Filtered)
	}
}

func TestNUSComposition(t *testing.T) {
	// NRS/NRM replay when either the NUS flag or the event window says
	// so (paper §3.3).
	for _, f := range []Filter{NoRecentMiss, NoRecentSnoop} {
		e := NewEngine(f)
		if decide(e, Load{Tag: 1}) {
			t.Errorf("%v: quiet window, no NUS: filtered expected", f)
		}
		if !decide(e, Load{Tag: 2, NUS: true}) {
			t.Errorf("%v: NUS load must replay regardless of window", f)
		}
		e.NoteExternalEvent(10)
		if !decide(e, Load{Tag: 3}) {
			t.Errorf("%v: open window must force replay", f)
		}
	}
}

func TestEventWindowOpensAndCloses(t *testing.T) {
	e := NewEngine(NoRecentSnoop)
	e.NoteExternalEvent(10) // youngest in-window load is tag 10
	if !e.WindowOpen() {
		t.Fatal("window should open")
	}
	// Loads older than 10 replay and do not close the window.
	en := Load{Tag: 7}
	if !decide(e, en) {
		t.Error("tag 7 must replay")
	}
	e.OnReplayComplete(en, en.Value)
	if !e.WindowOpen() {
		t.Error("window must stay open until the flagged load drains")
	}
	// The flagged load replays: window closes.
	en10 := Load{Tag: 10}
	decide(e, en10)
	e.OnReplayComplete(en10, en10.Value)
	if e.WindowOpen() {
		t.Error("window should close after flagged load replays")
	}
	// Subsequent loads are filtered again.
	if decide(e, Load{Tag: 11}) {
		t.Error("closed window should filter")
	}
}

func TestEventWindowClosedByFilteredLoadDraining(t *testing.T) {
	e := NewEngine(NoRecentMiss)
	e.NoteExternalEvent(4)
	// A load past the flagged tag drains without replaying (e.g. it
	// replayed for other reasons or the window load was filtered by
	// rule 3): OnLoadPassedReplayStage must still close the window.
	e.OnLoadPassedReplayStage(5)
	if e.WindowOpen() {
		t.Error("window should close when a load >= ageTag drains")
	}
}

func TestEventWindowReLatch(t *testing.T) {
	e := NewEngine(NoRecentSnoop)
	e.NoteExternalEvent(10)
	e.NoteExternalEvent(20) // later event re-latches
	en := Load{Tag: 10}
	decide(e, en)
	e.OnReplayComplete(en, 0)
	if !e.WindowOpen() {
		t.Error("window latched to 20 must survive tag 10 draining")
	}
}

func TestNoteEventWithNoLoadsInWindow(t *testing.T) {
	e := NewEngine(NoRecentSnoop)
	e.NoteExternalEvent(-1)
	if e.WindowOpen() {
		t.Error("event with empty window should be ignored")
	}
	if e.Stats.WindowEvents != 0 {
		t.Error("ignored event should not count")
	}
}

func TestMismatchDetectionAndClassification(t *testing.T) {
	e := NewEngine(ReplayAll)
	en := Load{Tag: 1, Value: 42, NUS: true}
	if e.OnReplayComplete(en, 42) {
		t.Error("matching value must not squash")
	}
	en2 := Load{Tag: 2, Value: 42, NUS: true}
	if !e.OnReplayComplete(en2, 43) {
		t.Error("mismatch must squash")
	}
	en3 := Load{Tag: 3, Value: 7}
	if !e.OnReplayComplete(en3, 8) {
		t.Error("mismatch must squash")
	}
	s := e.Stats
	if s.Replays != 3 {
		t.Errorf("replay counts: %+v", s)
	}
	if s.Mismatches != 2 {
		t.Errorf("mismatch count: %+v", s)
	}
	if s.ReplaysNUS != 2 {
		t.Errorf("ReplaysNUS = %d", s.ReplaysNUS)
	}
}

func TestRule3SkipsReplay(t *testing.T) {
	e := NewEngine(ReplayAll)
	en := Load{Tag: 1, NoReplay: true}
	if decide(e, en) {
		t.Error("rule-3-marked load must not replay")
	}
	if e.Stats.Rule3Skips != 1 {
		t.Errorf("Rule3Skips = %d", e.Stats.Rule3Skips)
	}
}

func TestOnSquashReanchorsWindow(t *testing.T) {
	e := NewEngine(NoRecentSnoop)
	e.NoteExternalEvent(12) // loads 5 and 12 are in the window
	e.OnSquash(10)          // the flagged load (12) dies
	if !e.WindowOpen() {
		t.Fatal("window must stay open across the squash")
	}
	// Surviving older load still replays...
	if !decide(e, Load{Tag: 5}) {
		t.Error("pre-squash load must still replay")
	}
	// ...and the first post-squash load closes the window when it
	// drains.
	e.OnLoadPassedReplayStage(10)
	if e.WindowOpen() {
		t.Error("window should close at the re-anchored tag")
	}
}

func TestOnSquashKeepsOlderAnchor(t *testing.T) {
	e := NewEngine(NoRecentSnoop)
	e.NoteExternalEvent(5)
	e.OnSquash(10) // flagged load 5 survives
	if !e.WindowOpen() {
		t.Fatal("window must stay open")
	}
	e.OnLoadPassedReplayStage(5)
	if e.WindowOpen() {
		t.Error("surviving anchor should close normally")
	}
}

func TestFilterStringsAndEventNeeds(t *testing.T) {
	for _, f := range []Filter{ReplayAll, NoReorder, NoRecentMiss, NoRecentSnoop, NUSOnly} {
		if f.String() == "" {
			t.Errorf("filter %d unnamed", f)
		}
	}
	if !NoRecentMiss.NeedsMissEvents() || NoRecentMiss.NeedsSnoopEvents() {
		t.Error("NRM event needs wrong")
	}
	if !NoRecentSnoop.NeedsSnoopEvents() || NoRecentSnoop.NeedsMissEvents() {
		t.Error("NRS event needs wrong")
	}
	if ReplayAll.NeedsMissEvents() || ReplayAll.NeedsSnoopEvents() {
		t.Error("replay-all needs no events")
	}
}

// decide returns the engine's replay decision for ld.
func decide(e *Engine, ld Load) bool {
	replay, _ := e.Decide(ld)
	return replay
}
