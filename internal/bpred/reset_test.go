package bpred

import (
	"reflect"
	"testing"
)

// TestResetMatchesNew: a trained predictor rebuilt by Reset predicts
// exactly like a new one — directions, BTB hits, history and counters.
func TestResetMatchesNew(t *testing.T) {
	drive := func(p *Predictor, seed uint64) []uint64 {
		var out []uint64
		x := seed
		for i := 0; i < 3000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			pc := (x >> 33) % 200 * 4
			taken, m := p.Predict(pc)
			// Low PCs alternate, which only gshare learns; the rest are
			// biased taken, which bimodal learns.
			actual := (x>>20)&3 != 0
			if pc < 64 {
				actual = i&1 == 0
			}
			p.Update(pc, actual, m)
			hit := p.BTBLookup(pc)
			if actual {
				p.BTBInstall(pc)
			}
			out = append(out, b2u(taken), b2u(hit))
		}
		return append(out, p.Stats.Lookups, p.Stats.Mispredicts, p.History())
	}
	used := New(small())
	drive(used, 1)
	used.Reset(small())
	if got, want := drive(used, 2), drive(New(small()), 2); !reflect.DeepEqual(got, want) {
		t.Fatal("a reset predictor diverged from a new one")
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
