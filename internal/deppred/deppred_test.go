package deppred

import "testing"

func TestSimpleColdPredictsNoWait(t *testing.T) {
	s := NewSimple(64)
	if s.Predicts(0x100) {
		t.Error("untrained predictor should not stall loads")
	}
}

func TestSimpleTrainsOnViolation(t *testing.T) {
	s := NewSimple(64)
	s.TrainViolation(0x100)
	if !s.Predicts(0x100) {
		t.Error("trained PC should wait")
	}
	if s.Predicts(0x104) {
		t.Error("different PC should be unaffected")
	}
}

func TestSimpleAliasing(t *testing.T) {
	s := NewSimple(16)
	s.TrainViolation(0x100)
	// PC 0x100>>2 = 0x40; alias at (0x40+16)<<2.
	alias := uint64((0x40 + 16) << 2)
	if !s.Predicts(alias) {
		t.Error("aliased PC should share the entry (destructive aliasing is real)")
	}
}

func TestSimpleBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for non-power-of-two size")
		}
	}()
	NewSimple(12)
}

func TestStoreSetsColdNoDependence(t *testing.T) {
	ss := NewStoreSets(64, 16)
	if ss.LoadDispatched(0x200) != -1 {
		t.Error("untrained load should be unconstrained")
	}
	if ss.StoreDispatched(0x300, 5) != -1 {
		t.Error("untrained store should be unconstrained")
	}
}

func TestStoreSetsViolationCreatesDependence(t *testing.T) {
	ss := NewStoreSets(64, 16)
	loadPC, storePC := uint64(0x200), uint64(0x300)
	ss.TrainViolation(loadPC, storePC)
	// The store dispatches, then the load must wait for it.
	ss.StoreDispatched(storePC, 7)
	if got := ss.LoadDispatched(loadPC); got != 7 {
		t.Errorf("load should wait for store tag 7, got %d", got)
	}
	// After the store retires, no dependence remains.
	ss.StoreRetired(storePC, 7)
	if got := ss.LoadDispatched(loadPC); got != -1 {
		t.Errorf("retired store still constrains load: %d", got)
	}
}

func TestStoreSetsSerializesStoresInSet(t *testing.T) {
	ss := NewStoreSets(64, 16)
	ss.TrainViolation(0x200, 0x300)
	ss.TrainViolation(0x200, 0x304) // merge second store into the set
	prev := ss.StoreDispatched(0x300, 10)
	if prev != -1 {
		t.Errorf("first store should see no predecessor, got %d", prev)
	}
	prev = ss.StoreDispatched(0x304, 11)
	if prev != 10 {
		t.Errorf("second store in set should order behind tag 10, got %d", prev)
	}
}

func TestStoreSetsMergeRules(t *testing.T) {
	ss := NewStoreSets(256, 16)
	// Two independent violations create two sets.
	ss.TrainViolation(0x400, 0x500)
	ss.TrainViolation(0x600, 0x700)
	s1 := ss.ssidOf(0x400)
	s2 := ss.ssidOf(0x600)
	if s1 < 0 || s2 < 0 || s1 == s2 {
		t.Fatalf("expected two distinct sets, got %d and %d", s1, s2)
	}
	// A violation bridging them merges to the smaller id.
	ss.TrainViolation(0x400, 0x700)
	m1, m2 := ss.ssidOf(0x400), ss.ssidOf(0x700)
	if m1 != m2 {
		t.Errorf("bridge violation should merge sets: %d vs %d", m1, m2)
	}
	want := s1
	if s2 < s1 {
		want = s2
	}
	if m1 != want {
		t.Errorf("merged to %d, want smaller id %d", m1, want)
	}
}

func TestStoreSetsSquashClearsYoungStores(t *testing.T) {
	ss := NewStoreSets(64, 16)
	ss.TrainViolation(0x200, 0x300)
	ss.StoreDispatched(0x300, 20)
	ss.SquashTag(15) // store 20 squashed
	if got := ss.LoadDispatched(0x200); got != -1 {
		t.Errorf("squashed store still constrains load: %d", got)
	}
}

func TestStoreSetsFalseDependences(t *testing.T) {
	// The pathology the paper observes on art: unrelated loads whose
	// PCs alias into a trained SSIT entry get stalled unnecessarily.
	ss := NewStoreSets(16, 8)
	ss.TrainViolation(0x200, 0x300)
	ss.StoreDispatched(0x300, 30)
	alias := uint64(0x200 + 16*4)
	if got := ss.LoadDispatched(alias); got != 30 {
		t.Errorf("aliased load should be (falsely) constrained, got %d", got)
	}
}
