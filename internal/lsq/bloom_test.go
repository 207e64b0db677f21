package lsq

import (
	"testing"
	"testing/quick"
)

func TestBloomBasics(t *testing.T) {
	f := NewBloomFilter(256, 2)
	if f.MayContain(0x1000) {
		t.Error("empty filter should answer definitely-absent")
	}
	f.Insert(0x1000)
	if !f.MayContain(0x1000) {
		t.Error("inserted address must be (possibly) present")
	}
	f.Remove(0x1000)
	if f.MayContain(0x1000) {
		t.Error("removed address should be absent again")
	}
}

func TestBloomCounting(t *testing.T) {
	f := NewBloomFilter(256, 2)
	f.Insert(0x40)
	f.Insert(0x40)
	f.Remove(0x40)
	if !f.MayContain(0x40) {
		t.Error("one of two occurrences removed: still present")
	}
	f.Remove(0x40)
	if f.MayContain(0x40) {
		t.Error("both occurrences removed: absent")
	}
}

func TestBloomNoFalseNegativesProperty(t *testing.T) {
	// The safety property: an inserted, un-removed address is never
	// reported absent.
	f := NewBloomFilter(128, 2)
	live := map[uint64]int{}
	err := quick.Check(func(addr uint64, remove bool) bool {
		a := (addr % 4096) &^ 63
		if remove && live[a] > 0 {
			f.Remove(a)
			live[a]--
		} else {
			f.Insert(a)
			live[a]++
		}
		for k, n := range live {
			if n > 0 && !f.MayContain(k) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestBloomBadConfigPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBloomFilter(100, 2) },
		func() { NewBloomFilter(128, 0) },
		func() { NewBloomFilter(128, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}

func TestLQBloomFiltersSearches(t *testing.T) {
	q := newLoadQueue(Snooping, 16)
	q.EnableBloom(256, 2)
	h := insertLoads(q, 1)
	q.OnIssue(h[0], 0x1000, -1)
	// A store to an unrelated block skips the CAM entirely.
	if _, found := q.OnStoreAgen(0x9000, 0); found {
		t.Error("unrelated store squashed")
	}
	if q.Stats.BloomFiltered != 1 || q.Stats.Searches != 0 {
		t.Errorf("filtered=%d searches=%d", q.Stats.BloomFiltered, q.Stats.Searches)
	}
	// Same-block store must still search and find the violation.
	if _, found := q.OnStoreAgen(0x1000, 0); !found {
		t.Error("real violation missed with bloom enabled")
	}
	// After commit-removal the filter empties again.
	q.squash(1)
	if _, found := q.OnStoreAgen(0x1000, 0); found {
		t.Error("squashed load still matched")
	}
	if q.Stats.BloomFiltered != 2 {
		t.Errorf("post-squash search not filtered: %d", q.Stats.BloomFiltered)
	}
}

func TestLQBloomInvalidationFilter(t *testing.T) {
	q := newLoadQueue(Snooping, 16)
	q.EnableBloom(256, 2)
	h := insertLoads(q, 1, 2)
	q.OnIssue(h[0], 0x1000, -1)
	q.OnIssue(h[1], 0x2000, -1)
	if _, found := q.OnInvalidation(0x7000, 1); found {
		t.Error("unrelated invalidation squashed")
	}
	if q.Stats.BloomFiltered == 0 {
		t.Error("invalidation search not filtered")
	}
	if _, found := q.OnInvalidation(0x2000, 1); !found {
		t.Error("real snoop conflict missed with bloom enabled")
	}
}
