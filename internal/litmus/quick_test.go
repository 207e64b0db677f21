package litmus

import (
	"testing"
	"testing/quick"
)

// randomTest builds a small random litmus test from a seed: 2–3
// threads, 1–3 operations each, over two shared locations. The shapes
// intentionally go beyond the curated battery so the oracle/checker
// cross-validation is exercised on tests nobody hand-tuned.
func randomTest(seed uint64) *Test {
	r := &rng{s: seed ^ 0xda3e39cb94b95bdb}
	t := New("rand", "randomized", 2)
	threads := 2 + r.intn(2)
	for i := 0; i < threads; i++ {
		var ops []Op
		for n := 1 + r.intn(3); n > 0; n-- {
			loc := Loc(r.intn(2))
			if r.next()&1 == 0 {
				ops = append(ops, St(loc, uint64(1+r.intn(3))))
			} else {
				ops = append(ops, Ld(loc))
			}
		}
		t.Thread(ops...)
	}
	return t
}

// TestQuickWitnessGraphsAcyclic is the property-based half of the
// oracle/checker cross-check: for random small tests, every outcome the
// SC oracle derives must replay into an acyclic constraint graph. The
// two components were written independently — the oracle interleaves
// operations, the checker builds value-aware dependence edges — so a
// counterexample here would mean one of them misunderstands SC.
func TestQuickWitnessGraphsAcyclic(t *testing.T) {
	prop := func(seed uint64) bool {
		test := randomTest(seed)
		as := Allowed(test)
		for _, key := range as.Keys() {
			g := as.WitnessGraph(key)
			if g == nil {
				return false
			}
			if _, cyc := g.FindCycle(); cyc {
				t.Logf("seed %d: cyclic witness for %s (%d threads)", seed, key, len(test.Threads))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickNUSOnlyForbiddenImpliesCycle is the property on the machine
// side: whenever the deliberately unsound NUS-alone configuration
// produces an SC-forbidden outcome on SB, the constraint graph built
// from that same execution must be cyclic — the graph checker and the
// oracle agree not just on what is allowed but on each concrete
// violation.
func TestQuickNUSOnlyForbiddenImpliesCycle(t *testing.T) {
	sb, _ := ByName("SB")
	as := Allowed(sb)
	cfg, _ := ConfigByName("nus-only")
	forbidden := 0
	prop := func(seed uint64) bool {
		res := RunOne(cfg.Machine, sb, as, seed, nil, nil, 0)
		if !res.OK {
			return true
		}
		if res.Allowed && res.Cycle {
			t.Logf("seed %d: allowed outcome %s with graph cycle", seed, res.Key)
			return false
		}
		if !res.Allowed {
			forbidden++
			if !res.Cycle {
				t.Logf("seed %d: forbidden outcome %s but acyclic graph", seed, res.Key)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	if forbidden == 0 {
		t.Skip("no forbidden outcome sampled; property vacuous this run")
	}
}
