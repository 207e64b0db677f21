package pipeline

// White-box tests for the stage-skip readiness layer's loadTracker: its
// head must be the oldest incomplete load of a naive model under
// dispatch/complete/commit/squash sequences, including the gap-laden
// tag patterns that squashes leave behind (tags are never reused, so
// the live window is not contiguous — the bug class a residue bitset
// would reintroduce).

import (
	"math/rand"
	"testing"

	"vbmo/internal/lsq"
)

// modelLoad is one ROB load of the reference model.
type modelLoad struct {
	tag  int64
	h    lsq.Handle
	done bool
}

// naiveHasBefore reports whether any incomplete load in rob is older
// than tag.
func naiveHasBefore(rob []modelLoad, tag int64) bool {
	for _, l := range rob {
		if !l.done && l.tag < tag {
			return true
		}
	}
	return false
}

func TestLoadTrackerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tr loadTracker
	tr.init(64)
	var rob []modelLoad // the ROB's loads, oldest first
	next := int64(0)

	check := func(q int64) {
		t.Helper()
		if got, want := tr.hasBefore(q), naiveHasBefore(rob, q); got != want {
			t.Fatalf("hasBefore(%d) = %v, naive = %v (rob=%v)", q, got, want, rob)
		}
	}

	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(12); {
		case op < 4 && len(rob) < 64: // dispatch a load
			// Leave gaps in the tag sequence, as post-squash
			// redispatch does.
			next += 1 + int64(rng.Intn(5))
			rob = append(rob, modelLoad{tag: next, h: tr.add(next)})
		case op < 7 && len(rob) > 0: // complete one load, any order
			if l := &rob[rng.Intn(len(rob))]; !l.done {
				tr.complete(l.h)
				l.done = true
			}
		case op < 9 && len(rob) > 0: // commit the head once it is done
			if rob[0].done {
				rob = rob[1:]
			}
		case op < 10 && len(rob) > 0: // squash: kill a suffix
			cut := rng.Intn(len(rob))
			from := rob[cut].tag
			if cut > 0 {
				from -= int64(rng.Intn(int(from - rob[cut-1].tag)))
			}
			tr.squash(from)
			rob = rob[:cut]
		default: // query around the live window
			check(next - int64(rng.Intn(20)) + 5)
		}
		for _, l := range rob {
			if !l.done {
				check(l.tag)     // oldest incomplete: never "before"
				check(l.tag + 1) // just past it: always "before"
				if got := tr.w.OldestTag(); got != l.tag {
					t.Fatalf("tracker head %d, oldest incomplete load %d", got, l.tag)
				}
				break
			}
		}
		check(next + 1) // youngest bound
	}
}

// TestLoadTrackerRemoveAbsent: a squash that reaches a load already
// completed, queued behind an older incomplete one or already popped,
// must drop only what is still queued, not corrupt the tracker.
func TestLoadTrackerRemoveAbsent(t *testing.T) {
	var tr loadTracker
	tr.init(8)
	h10 := tr.add(10)
	h20 := tr.add(20)
	tr.complete(h20) // done, queued behind 10
	if !tr.hasBefore(11) {
		t.Fatal("tag 10 lost by a younger completion")
	}
	tr.squash(15) // kills the completed 20
	if tr.hasBefore(10) {
		t.Fatal("phantom tag older than 10")
	}
	tr.complete(h10)
	if tr.hasBefore(1 << 40) {
		t.Fatal("tracker not empty after every load completed")
	}
	tr.squash(5) // every load already popped
	h30 := tr.add(30)
	if !tr.hasBefore(31) || tr.w.Len() != 1 || tr.w.Tag(h30) != 30 {
		t.Fatal("tracker corrupted by a squash of popped loads")
	}
}
