package vpred

import "testing"

func TestColdNoPrediction(t *testing.T) {
	p := New(64)
	if _, ok := p.Predict(0x100); ok {
		t.Error("cold predictor must not predict")
	}
}

func TestConfidenceBuildsAndPredicts(t *testing.T) {
	p := New(64)
	pc := uint64(0x100)
	// Three trainings with the same value build confidence past the
	// threshold (first allocates, next two increment).
	for i := 0; i < 3; i++ {
		p.Train(pc, 42, false)
	}
	v, ok := p.Predict(pc)
	if !ok || v != 42 {
		t.Fatalf("Predict = %d,%v", v, ok)
	}
}

func TestChangingValueResetsConfidence(t *testing.T) {
	p := New(64)
	pc := uint64(0x104)
	for i := 0; i < 3; i++ {
		p.Train(pc, 7, false)
	}
	p.Train(pc, 8, true) // misprediction outcome
	if _, ok := p.Predict(pc); ok {
		t.Error("confidence must reset after a value change")
	}
	if p.Stats.Incorrect != 1 {
		t.Errorf("Incorrect = %d", p.Stats.Incorrect)
	}
}

func TestAccuracy(t *testing.T) {
	p := New(64)
	pc := uint64(0x108)
	for i := 0; i < 3; i++ {
		p.Train(pc, 5, false)
	}
	p.Train(pc, 5, true)
	p.Train(pc, 5, true)
	p.Train(pc, 6, true)
	// Two of the three issued predictions were right, 2/3 accuracy.
	if p.Stats.Correct != 2 || p.Stats.Incorrect != 1 {
		t.Errorf("correct/incorrect = %d/%d, want 2/1", p.Stats.Correct, p.Stats.Incorrect)
	}
	if s := New(64).Stats; s.Correct != 0 || s.Incorrect != 0 {
		t.Errorf("empty predictor counted %+v", s)
	}
}

func TestAliasReplacement(t *testing.T) {
	p := New(16)
	a := uint64(0x100)
	b := a + 16*4 // same slot
	for i := 0; i < 3; i++ {
		p.Train(a, 1, false)
	}
	p.Train(b, 2, false) // evicts a
	if _, ok := p.Predict(a); ok {
		t.Error("evicted PC still predicts")
	}
}

func TestBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(48)
}
