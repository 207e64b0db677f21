package vpred

import (
	"reflect"
	"testing"
)

// TestResetMatchesNew: a trained predictor rebuilt by Reset predicts
// exactly like a new one.
func TestResetMatchesNew(t *testing.T) {
	drive := func(p *LastValue, seed uint64) []uint64 {
		var out []uint64
		x := seed
		for i := 0; i < 3000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			pc, val := (x>>33)%100*4, (x>>50)%3
			v, ok := p.Predict(pc)
			p.Train(pc, val, ok)
			if ok {
				out = append(out, v)
			}
		}
		return append(out, p.Stats.Predictions, p.Stats.Correct, p.Stats.Incorrect)
	}
	used := New(64)
	drive(used, 1)
	used.Reset(64)
	if got, want := drive(used, 2), drive(New(64), 2); !reflect.DeepEqual(got, want) {
		t.Fatal("a reset predictor diverged from a new one")
	}
}
