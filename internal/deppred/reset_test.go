package deppred

import (
	"reflect"
	"testing"
)

// TestResetMatchesNew: trained predictors rebuilt by Reset answer
// exactly like new ones.
func TestResetMatchesNew(t *testing.T) {
	drive := func(s *Simple, ss *StoreSets, seed uint64) []uint64 {
		var out []uint64
		x := seed
		for i := 0; i < 3000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			load, store, tag := (x>>33)%300*4, (x>>13)%300*4, int64(i)
			if x>>60 == 0 {
				s.TrainViolation(load)
				ss.TrainViolation(load, store)
			}
			wait := uint64(0)
			if s.Predicts(load) {
				wait = 1
			}
			dep := ss.StoreDispatched(store, tag)
			out = append(out, wait, uint64(dep), uint64(ss.LoadDispatched(load)))
			if x>>40&3 == 0 {
				ss.StoreRetired(store, tag)
			}
		}
		return out
	}
	s, ss := NewSimple(256), NewStoreSets(256, 16)
	drive(s, ss, 1)
	s.Reset(256)
	ss.Reset(256, 16)
	if got, want := drive(s, ss, 2), drive(NewSimple(256), NewStoreSets(256, 16), 2); !reflect.DeepEqual(got, want) {
		t.Fatal("reset predictors diverged from new ones")
	}
}
