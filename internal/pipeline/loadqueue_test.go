package pipeline

// White-box tests for the load tracker (loadqueue.go): the done bits
// and the cursor it keeps over the core's load queue, against a naive
// model, including the gap-laden tag patterns that squashes leave behind
// (tags are never reused, so the live window is not contiguous — the bug
// class a residue bitset would reintroduce). The queue's own order,
// capacity and handles are core.LoadQueue's, tested in internal/core.

import (
	"math/rand"
	"testing"

	"vbmo/internal/lsq"
)

// modelLoad is one queued load of the reference model.
type modelLoad struct {
	tag  int64
	h    lsq.Handle
	done bool
}

// naiveHasBefore reports whether any incomplete load in loads is older
// than tag.
func naiveHasBefore(loads []modelLoad, tag int64) bool {
	for _, l := range loads {
		if !l.done && l.tag < tag {
			return true
		}
	}
	return false
}

// TestLoadTrackerMatchesNaive drives the tracker and a naive tag-ordered
// slice through a seeded stream of dispatch (while the queue has room),
// completion in any order, commit of a completed head, and squash,
// possibly from inside a tag gap. After every operation it compares the
// occupancy, every load's tag and done bit reached through its handle,
// the cursor (the oldest incomplete load's handle, or the tail), and
// hasBefore around the live window. One capacity fills the done ring
// exactly, the other leaves it slack; both wrap it many times.
func TestLoadTrackerMatchesNaive(t *testing.T) {
	for _, capacity := range []int{8, 10} {
		rng := rand.New(rand.NewSource(7))
		var tr loadTracker
		tr.init(capacity)
		var ref []modelLoad // the queue's loads, oldest first
		next := int64(0)
		pushes, squashes := 0, 0

		check := func(step int, tag int64) {
			t.Helper()
			if got, want := tr.hasBefore(tag), naiveHasBefore(ref, tag); got != want {
				t.Fatalf("capacity %d, step %d: hasBefore(%d) = %v, naive = %v (ref=%v)",
					capacity, step, tag, got, want, ref)
			}
		}

		for step := 0; step < 40000; step++ {
			switch op := rng.Intn(12); {
			case op < 4 && len(ref) < capacity: // dispatch, with gaps in the tag sequence
				next += 1 + int64(rng.Intn(4))
				ref = append(ref, modelLoad{tag: next, h: tr.push(next)})
				pushes++
			case op < 7 && len(ref) > 0: // complete one load, any order
				if l := &ref[rng.Intn(len(ref))]; !l.done {
					tr.complete(l.h)
					l.done = true
				}
			case op < 10 && len(ref) > 0: // commit the head once it is done
				if ref[0].done {
					tr.pop()
					ref = ref[1:]
				}
			case op < 11 && len(ref) > 0: // squash a suffix
				from := ref[rng.Intn(len(ref))].tag - int64(rng.Intn(3))
				tr.squash(from)
				for len(ref) > 0 && ref[len(ref)-1].tag >= from {
					ref = ref[:len(ref)-1]
				}
				squashes++
			default: // query around the live window
				check(step, next-int64(rng.Intn(40))+5)
			}

			if tr.fifo.Len() != len(ref) {
				t.Fatalf("capacity %d, step %d: Len %d, naive %d", capacity, step, tr.fifo.Len(), len(ref))
			}
			cursor := tr.fifo.Tail()
			for _, l := range ref {
				if got := tr.fifo.Tag(l.h); got != l.tag {
					t.Fatalf("capacity %d, step %d: Tag(%d) = %d, naive %d", capacity, step, l.h, got, l.tag)
				}
				if got := tr.done[tr.fifo.Slot(l.h)]; got != l.done {
					t.Fatalf("capacity %d, step %d: load %d done %t, naive %t", capacity, step, l.tag, got, l.done)
				}
				if !l.done && cursor == tr.fifo.Tail() {
					cursor = l.h
					check(step, l.tag)   // oldest incomplete: never "before"
					check(step, l.tag+1) // just past it: always "before"
				}
			}
			if tr.inc != cursor {
				t.Fatalf("capacity %d, step %d: cursor at handle %d, oldest incomplete load's is %d (ref=%v)",
					capacity, step, tr.inc, cursor, ref)
			}
			check(step, next+1) // youngest bound
		}
		if squashes < 1000 || pushes < 10000 {
			t.Errorf("capacity %d: the stream pushed %d loads and squashed %d times, want more",
				capacity, pushes, squashes)
		}
	}
}

// TestLoadTrackerRemoveAbsent: a squash that reaches a completed load
// queued behind an older incomplete one, or that finds every load
// already committed, must drop only what is still queued and leave the
// cursor at the oldest incomplete load.
func TestLoadTrackerRemoveAbsent(t *testing.T) {
	var q loadTracker
	q.init(8)
	h10 := q.push(10)
	h20 := q.push(20)
	q.complete(h20) // done, queued behind 10
	if !q.hasBefore(11) {
		t.Fatal("tag 10 lost by a younger completion")
	}
	q.squash(15) // kills the completed 20
	if q.hasBefore(10) {
		t.Fatal("phantom tag older than 10")
	}
	q.complete(h10)
	if q.hasBefore(1 << 40) {
		t.Fatal("an incomplete load remains after every load completed")
	}
	q.pop()     // 10 commits
	q.squash(5) // every load already committed
	h30 := q.push(30)
	if !q.hasBefore(31) || q.fifo.Len() != 1 || q.fifo.Tag(h30) != 30 || q.inc != h30 {
		t.Fatal("queue corrupted by a squash of committed loads")
	}
}
