package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vbmo/internal/lsq"
)

func TestFIFOInsertOrderAndCapacity(t *testing.T) {
	q := NewFIFOQueue(2)
	_, ok1 := q.Insert(1)
	_, ok2 := q.Insert(5)
	if !ok1 || !ok2 {
		t.Fatal("inserts failed")
	}
	if _, ok := q.Insert(9); ok {
		t.Error("full queue accepted insert")
	}
	if q.Len() != 2 || !q.Full() {
		t.Errorf("Len=%d Full=%v", q.Len(), q.Full())
	}
	if w := q.Window(); w.OldestTag() != 1 || q.YoungestTag() != 5 {
		t.Errorf("oldest %d youngest %d, want 1 and 5", w.OldestTag(), q.YoungestTag())
	}
}

func TestFIFOOutOfOrderInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order insert should panic")
		}
	}()
	q := NewFIFOQueue(4)
	q.Insert(5)
	q.Insert(2)
}

// TestFIFOFindRemoveSquash: a handle reaches its load's tag through the
// queue's window until the load is popped or squashed, and an absent
// handle panics.
func TestFIFOFindRemoveSquash(t *testing.T) {
	q := NewFIFOQueue(8)
	var hs []lsq.Handle
	for i := int64(1); i <= 5; i++ {
		h, _ := q.Insert(i)
		hs = append(hs, h)
	}
	if w := q.Window(); w.Tag(hs[2]) != 3 {
		t.Errorf("Tag(handle of 3) = %d", w.Tag(hs[2]))
	}
	q.Pop()
	q.Squash(4)
	if w := q.Window(); q.Len() != 2 || w.OldestTag() != 2 || w.Tag(hs[2]) != 3 {
		t.Errorf("after pop+squash: len=%d tags=%v", q.Len(), w.Tags())
	}
	for _, h := range []lsq.Handle{hs[0], hs[3], hs[4]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Tag(%d) of a popped or squashed load did not panic", h)
				}
			}()
			w := q.Window()
			w.Tag(h)
		}()
	}
	empty := NewFIFOQueue(2)
	if w := empty.Window(); w.OldestTag() != -1 || empty.YoungestTag() != -1 {
		t.Error("an empty queue has no oldest or youngest tag")
	}
}

func TestReplayAllReplaysEverything(t *testing.T) {
	e := NewEngine(ReplayAll, 8)
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
	e := NewEngine(NoReorder, 8)
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
		e := NewEngine(f, 8)
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
	e := NewEngine(NoRecentSnoop, 8)
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
	e := NewEngine(NoRecentMiss, 8)
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
	e := NewEngine(NoRecentSnoop, 8)
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
	e := NewEngine(NoRecentSnoop, 8)
	e.NoteExternalEvent(-1)
	if e.WindowOpen() {
		t.Error("event with empty window should be ignored")
	}
	if e.Stats.WindowEvents != 0 {
		t.Error("ignored event should not count")
	}
}

func TestMismatchDetectionAndClassification(t *testing.T) {
	e := NewEngine(ReplayAll, 8)
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
	if s.Replays != 3 || s.Comparisons != 3 {
		t.Errorf("replay counts: %+v", s)
	}
	if s.Mismatches != 2 || s.MismatchesNUS != 1 {
		t.Errorf("mismatch classification: %+v", s)
	}
	if s.ReplaysNUS != 2 {
		t.Errorf("ReplaysNUS = %d", s.ReplaysNUS)
	}
}

func TestRule3SkipsReplay(t *testing.T) {
	e := NewEngine(ReplayAll, 8)
	en := Load{Tag: 1, NoReplay: true}
	if decide(e, en) {
		t.Error("rule-3-marked load must not replay")
	}
	if e.Stats.Rule3Skips != 1 {
		t.Errorf("Rule3Skips = %d", e.Stats.Rule3Skips)
	}
}

func TestOnSquashReanchorsWindow(t *testing.T) {
	e := NewEngine(NoRecentSnoop, 8)
	e.Queue.Insert(5)
	e.Queue.Insert(12)
	e.NoteExternalEvent(12)
	e.OnSquash(10) // the flagged load (12) dies
	if e.Queue.Len() != 1 {
		t.Error("squash should drop load 12 from the queue")
	}
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
	e := NewEngine(NoRecentSnoop, 8)
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

func TestFIFOQueueProperty(t *testing.T) {
	// Property: after any sequence of inserts with increasing tags and
	// a squash at k, no entry with tag >= k remains and order is
	// preserved.
	err := quick.Check(func(n uint8, k uint8) bool {
		q := NewFIFOQueue(300)
		for i := int64(0); i < int64(n); i++ {
			q.Insert(i)
		}
		q.Squash(int64(k))
		last := int64(-1)
		w := q.Window()
		for h := w.Head(); h < w.Tail(); h++ {
			tag := w.Tag(h)
			if tag >= int64(k) || tag <= last {
				return false
			}
			last = tag
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestFIFOQueueMatchesNaive drives the FIFO load queue and a naive
// tag-ordered slice through a seeded stream of dispatch, commit and
// squash, with gaps in the tag sequence, and compares every load's tag,
// reached by its handle through the queue's window, and the queue's
// ends after every operation. The queue is small, so its window
// re-bases often.
func TestFIFOQueueMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const capacity = 10
	q := NewFIFOQueue(capacity)
	type load struct {
		h   lsq.Handle
		tag int64
	}
	var ref []load // the naive queue, oldest first
	next := int64(0)
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(6); {
		case op < 3: // dispatch
			next += 1 + int64(rng.Intn(3))
			h, ok := q.Insert(next)
			if ok != (len(ref) < capacity) {
				t.Fatalf("step %d: Insert ok %t with %d of %d loads queued", step, ok, len(ref), capacity)
			}
			if ok {
				ref = append(ref, load{h, next})
			}
		case op < 5 && len(ref) > 0: // commit
			q.Pop()
			ref = ref[1:]
		case len(ref) > 0: // squash, possibly from inside a tag gap
			from := ref[rng.Intn(len(ref))].tag - int64(rng.Intn(2))
			q.Squash(from)
			for len(ref) > 0 && ref[len(ref)-1].tag >= from {
				ref = ref[:len(ref)-1]
			}
		}
		if q.Len() != len(ref) || q.Full() != (len(ref) == capacity) {
			t.Fatalf("step %d: Len %d Full %t, naive %d", step, q.Len(), q.Full(), len(ref))
		}
		w := q.Window()
		oldest, youngest := int64(-1), int64(-1)
		if len(ref) > 0 {
			oldest, youngest = ref[0].tag, ref[len(ref)-1].tag
		}
		if w.OldestTag() != oldest || q.YoungestTag() != youngest {
			t.Fatalf("step %d: oldest %d youngest %d, naive %d and %d",
				step, w.OldestTag(), q.YoungestTag(), oldest, youngest)
		}
		for _, l := range ref {
			if got := w.Tag(l.h); got != l.tag {
				t.Fatalf("step %d: Tag(%d) = %d, naive %d", step, l.h, got, l.tag)
			}
		}
	}
}

// decide returns the engine's replay decision for ld.
func decide(e *Engine, ld Load) bool {
	replay, _ := e.Decide(ld)
	return replay
}
