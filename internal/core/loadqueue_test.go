package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vbmo/internal/lsq"
)

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestFIFOInsertOrderAndCapacity(t *testing.T) {
	var q LoadQueue
	q.Reset(2)
	q.Push(1)
	q.Push(5)
	if q.Len() != 2 || !q.Full() {
		t.Errorf("Len=%d Full=%v", q.Len(), q.Full())
	}
	if !panics(func() { q.Push(9) }) {
		t.Error("full queue accepted a push")
	}
	if w := &q.Window; w.OldestTag() != 1 || q.YoungestTag() != 5 || q.Len() != 2 {
		t.Errorf("oldest %d youngest %d Len %d, want 1, 5 and 2", w.OldestTag(), q.YoungestTag(), q.Len())
	}
}

func TestFIFOOutOfOrderInsertPanics(t *testing.T) {
	var q LoadQueue
	q.Reset(4)
	q.Push(5)
	if !panics(func() { q.Push(2) }) {
		t.Error("out-of-order push should panic")
	}
	if !panics(func() { q.Push(5) }) {
		t.Error("a push of the youngest tag again should panic")
	}
}

func TestFIFOFindRemoveSquash(t *testing.T) {
	var q LoadQueue
	q.Reset(8)
	var hs []lsq.Handle
	for i := int64(1); i <= 5; i++ {
		hs = append(hs, q.Push(i))
	}
	if q.Tag(hs[2]) != 3 || q.Tail() != hs[4]+1 {
		t.Errorf("Tag(handle of 3) = %d, Tail %d", q.Tag(hs[2]), q.Tail())
	}
	q.Pop()
	q.Squash(4)
	if w := &q.Window; q.Len() != 2 || w.OldestTag() != 2 || q.Tag(hs[2]) != 3 || q.Tail() != hs[3] {
		t.Errorf("after pop+squash: len=%d oldest=%d youngest=%d tail=%d", q.Len(), w.OldestTag(), q.YoungestTag(), q.Tail())
	}
	for _, h := range []lsq.Handle{hs[0], hs[3], hs[4]} {
		if !panics(func() { q.Tag(h) }) {
			t.Errorf("Tag(%d) of a popped or squashed load did not panic", h)
		}
	}
	// The next push reuses the first squashed handle.
	if h := q.Push(7); h != hs[3] || q.Tag(h) != 7 {
		t.Errorf("push after the squash got handle %d (tag %d), want %d", h, q.Tag(h), hs[3])
	}
	var empty LoadQueue
	empty.Reset(2)
	if w := &empty.Window; w.OldestTag() != -1 || empty.YoungestTag() != -1 {
		t.Error("an empty queue has no oldest or youngest tag")
	}
}

func TestFIFOQueueProperty(t *testing.T) {
	// Property: after any sequence of pushes with increasing tags and
	// a squash at k, no entry with tag >= k remains and order is
	// preserved.
	err := quick.Check(func(n uint8, k uint8) bool {
		var q LoadQueue
		q.Reset(300)
		for i := int64(0); i < int64(n); i++ {
			q.Push(i)
		}
		q.Squash(int64(k))
		last := int64(-1)
		w := &q.Window
		for h := w.Head(); h < w.Tail(); h++ {
			tag := w.Tag(h)
			if tag >= int64(k) || tag <= last {
				return false
			}
			last = tag
		}
		return q.Len() == int(min(n, k))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestFIFOQueueMatchesNaive drives the queue and a naive tag-ordered
// slice through a seeded stream of dispatch (refused when full), commit
// and squash, possibly from inside a tag gap. After every operation it
// compares the occupancy and Full, both end tags, the tail, and every
// load's tag reached through its handle. The queue is small, so its
// ring of 16 slots wraps often.
func TestFIFOQueueMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const capacity = 10
	var q LoadQueue
	q.Reset(capacity)
	type load struct {
		h   lsq.Handle
		tag int64
	}
	var ref []load // the naive queue, oldest first
	next := int64(0)
	refused := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(6); {
		case op < 3: // dispatch
			next += 1 + int64(rng.Intn(3))
			if len(ref) == capacity {
				if !panics(func() { q.Push(next) }) {
					t.Fatalf("step %d: a push into a full queue did not panic", step)
				}
				refused++
				break
			}
			ref = append(ref, load{q.Push(next), next})
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
		w := &q.Window
		oldest, youngest := int64(-1), int64(-1)
		if len(ref) > 0 {
			oldest, youngest = ref[0].tag, ref[len(ref)-1].tag
		}
		if w.OldestTag() != oldest || q.YoungestTag() != youngest {
			t.Fatalf("step %d: oldest %d youngest %d, naive %d and %d",
				step, w.OldestTag(), q.YoungestTag(), oldest, youngest)
		}
		if len(ref) > 0 && q.Tail() != ref[len(ref)-1].h+1 {
			t.Fatalf("step %d: tail %d, youngest load's handle %d", step, q.Tail(), ref[len(ref)-1].h)
		}
		for _, l := range ref {
			if got := q.Tag(l.h); got != l.tag {
				t.Fatalf("step %d: Tag(%d) = %d, naive %d", step, l.h, got, l.tag)
			}
		}
	}
	if refused == 0 {
		t.Error("the stream never filled the queue")
	}
}
