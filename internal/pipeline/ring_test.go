package pipeline

import (
	"testing"

	"vbmo/internal/consistency"
)

// The ring buffers exist to make the cycle loop allocation-free, but
// they must stay drop-in replacements for the slices they replaced.
// These tests exercise every operation across wraparound boundaries
// and check the writerRing against a reference map + eviction log.

func TestEntryRingFIFOWraparound(t *testing.T) {
	const capacity = 4
	var r entryRing
	r.init(capacity)

	// Push/pop enough times to wrap the head several times over.
	next := handle(1)
	oldest := handle(1)
	for round := 0; round < 5; round++ {
		for r.Len() < capacity {
			r.Push(next)
			next++
		}
		// Random access must see entries oldest-first.
		for i := 0; i < r.Len(); i++ {
			if got := r.At(i); got != oldest+handle(i) {
				t.Fatalf("round %d: At(%d) = %d, want %d", round, i, got, oldest+handle(i))
			}
		}
		// Drain a couple from the front.
		for k := 0; k < 2; k++ {
			if got := r.PopFront(); got != oldest {
				t.Fatalf("round %d: PopFront = %d, want %d", round, got, oldest)
			}
			oldest++
		}
	}
}

func TestEntryRingTruncateFrom(t *testing.T) {
	const capacity = 4
	var r entryRing
	r.init(capacity)

	// Arrange a wrapped state: head in the middle of the backing array.
	for h := handle(1); h <= capacity; h++ {
		r.Push(h)
	}
	r.PopFront()
	r.PopFront()
	r.Push(5)
	r.Push(6) // ring now holds 3,4,5,6 with head=2

	r.TruncateFrom(1) // squash everything younger than the oldest
	if r.Len() != 1 {
		t.Fatalf("Len after TruncateFrom(1) = %d, want 1", r.Len())
	}
	if got := r.At(0); got != 3 {
		t.Fatalf("survivor = %d, want 3", got)
	}

	// The ring stays usable after a truncate.
	r.Push(7)
	if r.Len() != 2 || r.At(1) != 7 {
		t.Fatal("push after truncate broke the ring")
	}
}

func TestFetchRingOps(t *testing.T) {
	const capacity = 3
	var r fetchRing
	r.init(capacity)
	next := uint64(0)
	front := uint64(0)
	for round := 0; round < 4; round++ {
		for r.Len() < capacity {
			f := r.PushSlot()
			if f.pc != 0 || f.readyCycle != 0 {
				t.Fatal("PushSlot must hand out a zeroed slot")
			}
			f.pc = next
			next++
		}
		for k := 0; k < 2; k++ {
			if got := r.Front().pc; got != front {
				t.Fatalf("round %d: Front().pc = %d, want %d", round, got, front)
			}
			r.DropFront()
			front++
		}
	}
	r.Clear()
	if r.Len() != 0 {
		t.Fatal("Clear left entries behind")
	}
	// A cleared ring accepts a full capacity again.
	for i := 0; i < capacity; i++ {
		r.PushSlot().pc = 100 + uint64(i)
	}
	if r.Front().pc != 100 {
		t.Fatal("ring confused after Clear")
	}
}

// TestWriterRingMatchesReferenceWindow drives the writerRing alongside
// the map-plus-eviction-log it replaced and requires identical lookup
// results for hits, evicted tags, and never-pushed tags.
func TestWriterRingMatchesReferenceWindow(t *testing.T) {
	const window = 8
	r := newWriterRing(window)
	ref := make(map[int64]consistency.Writer)
	var log []int64

	tag := int64(0)
	for i := 0; i < 50; i++ {
		tag += int64(1 + i%3) // strictly increasing, with gaps
		w := consistency.Writer(i + 1)
		r.Push(tag, w)
		ref[tag] = w
		log = append(log, tag)
		if len(log) > window {
			delete(ref, log[0])
			log = log[1:]
		}

		// Every tag ever seen, plus some never-pushed ones.
		for probe := int64(0); probe <= tag+2; probe++ {
			gotW, gotOK := r.Lookup(probe)
			wantW, wantOK := ref[probe]
			if gotOK != wantOK || (gotOK && gotW != wantW) {
				t.Fatalf("after %d pushes: Lookup(%d) = (%v,%v), want (%v,%v)",
					i+1, probe, gotW, gotOK, wantW, wantOK)
			}
		}
	}
}

func TestWriterRingNilSafe(t *testing.T) {
	var r *writerRing
	if _, ok := r.Lookup(1); ok {
		t.Fatal("nil writerRing must report a miss")
	}
}

// TestPoolGenerationTags checks the freelist's recycle contract: the
// generation survives zeroing and strictly increases, so a consumer
// holding a stale producer handle is detectable (pool.srcReady panics
// on a generation mismatch).
func TestPoolGenerationTags(t *testing.T) {
	var p pool
	p.init(2)
	a := p.get()
	g := a.gen
	if g == 0 {
		t.Fatal("recycled entry must have a nonzero generation")
	}
	a.tag = 99
	a.result = 7
	p.put(a)
	b := p.get()
	if b != a {
		t.Fatal("pool did not recycle the freed entry")
	}
	if b.tag != 0 || b.result != 0 {
		t.Fatal("pool must zero recycled entries")
	}
	if b.gen != g+1 {
		t.Fatalf("generation after recycle = %d, want %d", b.gen, g+1)
	}

	// Stale-handle detection end to end.
	consumer := &entry{reads1: true, src1: b.self, src1Gen: b.gen}
	p.put(b)
	stale := p.get() // same slot, bumped generation
	if stale != b {
		t.Fatal("expected the same slot back")
	}
	defer func() {
		if recover() == nil {
			t.Error("srcReady must panic on a stale producer generation")
		}
	}()
	p.srcReady(consumer, 1)
}

// TestPoolExhaustionPanics: the ROB caps live entries at the slab's
// size, so a get from an exhausted pool is a leak and panics.
func TestPoolExhaustionPanics(t *testing.T) {
	var p pool
	p.init(1)
	_ = p.get()
	defer func() {
		if recover() == nil {
			t.Error("get on an exhausted pool must panic")
		}
	}()
	p.get()
}
