package lsq

import "testing"

// twoLevelQueue builds a hierarchical store queue with n resolved
// stores at distinct addresses.
func twoLevelQueue(n int) *StoreQueue {
	q := NewStoreQueue(64)
	q.EnableTwoLevel(4, 3, 256)
	for i := 0; i < n; i++ {
		insertStore(q, int64(i), uint64(0x1000+i*8), uint64(i))
	}
	return q
}

func TestTwoLevelL1MatchIsFast(t *testing.T) {
	q := twoLevelQueue(10)
	// The newest 4 stores (tags 6..9) are level one.
	r := q.Search(0x1000+9*8, 100)
	if !r.Match || r.MatchTag != 9 {
		t.Fatalf("L1 match failed: %+v", r)
	}
	if r.Latency != 0 {
		t.Errorf("L1 match latency = %d, want 0", r.Latency)
	}
}

func TestTwoLevelL2MatchIsSlow(t *testing.T) {
	q := twoLevelQueue(10)
	r := q.Search(0x1000, 100) // oldest store, deep in L2
	if !r.Match || r.MatchTag != 0 {
		t.Fatalf("L2 match failed: %+v", r)
	}
	if r.Latency != 3 {
		t.Errorf("L2 match latency = %d, want 3", r.Latency)
	}
	if q.Stats.L2Searches != 1 {
		t.Errorf("L2Searches = %d", q.Stats.L2Searches)
	}
}

func TestTwoLevelFilterSkipsL2(t *testing.T) {
	q := twoLevelQueue(10)
	r := q.Search(0x9000, 100) // matches nothing anywhere
	if r.Match {
		t.Fatal("phantom match")
	}
	if q.Stats.L2Filtered != 1 {
		t.Errorf("L2 probe not filtered: filtered=%d searched=%d", q.Stats.L2Filtered, q.Stats.L2Searches)
	}
}

func TestTwoLevelUnresolvedForcesL2(t *testing.T) {
	q := twoLevelQueue(10)
	// An unresolved store anywhere defeats the filter (it could alias).
	q.Insert(50)
	r := q.Search(0x9000, 100)
	if r.Match {
		t.Fatal("phantom match")
	}
	if !r.UnresolvedOlder {
		t.Error("unresolved store not reported")
	}
	if q.Stats.L2Filtered != 0 || q.Stats.L2Searches != 1 {
		t.Errorf("filter must not skip with unresolved stores: filtered=%d searched=%d",
			q.Stats.L2Filtered, q.Stats.L2Searches)
	}
}

func TestTwoLevelFilterMaintenance(t *testing.T) {
	q := twoLevelQueue(10)
	// Remove the oldest store; its address leaves the filter, so a
	// search for it is now filtered.
	q.Pop()
	r := q.Search(0x1000, 100)
	if r.Match {
		t.Error("removed store still matches")
	}
	if q.Stats.L2Filtered != 1 {
		t.Errorf("filter not maintained on Remove: %d", q.Stats.L2Filtered)
	}
	// Squash the rest; all filter state drains.
	q.Squash(0)
	if q.Len() != 0 {
		t.Error("squash incomplete")
	}
	q2 := twoLevelQueue(10)
	q2.Squash(5)
	if r := q2.Search(0x1000+8*8, 100); r.Match {
		t.Error("squashed store still matches")
	}
}

func TestFlatQueueUnaffected(t *testing.T) {
	q := NewStoreQueue(8)
	insertStore(q, 1, 0x1000, 5)
	r := q.Search(0x1000, 9)
	if !r.Match || r.Latency != 0 {
		t.Errorf("flat queue changed: %+v", r)
	}
}

// TestPeekCountsWhatSearchCounts pins the contract parked loads rely on:
// Peek counts nothing and reports what a Search would count, and
// Charging a remembered search's counts equals repeating the Search.
// Only the host-work count Compared moves on a Peek.
func TestPeekCountsWhatSearchCounts(t *testing.T) {
	read := func(q *StoreQueue) SQStats {
		st := q.Stats
		st.Compared = 0
		return st
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, tc := range []struct {
		name             string
		unresolved       bool
		addr             uint64
		level2, filtered bool
	}{
		{"level one", false, 0x1000 + 9*8, false, false},
		{"level two after a filter query", false, 0x1000, true, false},
		{"level two with a store unresolved", true, 0x1000, true, false},
		{"filtered", false, 0x9000, false, true},
	} {
		q := twoLevelQueue(10)
		if tc.unresolved {
			q.Insert(50)
		}
		before := read(q)
		r := q.Peek(tc.addr, 100)
		if got := read(q); got != before {
			t.Fatalf("%s: Peek counted: %+v -> %+v", tc.name, before, got)
		}
		if r.Level2 != tc.level2 || r.Filtered != tc.filtered {
			t.Errorf("%s: Level2 %t Filtered %t, want %t %t",
				tc.name, r.Level2, r.Filtered, tc.level2, tc.filtered)
		}
		if s := q.Search(tc.addr, 100); s != r {
			t.Fatalf("%s: Search %+v, Peek %+v", tc.name, s, r)
		}
		searched := read(q)
		if r.Filtered {
			continue // a filtered search finds no match, so no load charges one
		}
		q.Charge(1, b2u(r.Level2))
		want := searched
		want.Searches += searched.Searches - before.Searches
		want.L2Searches += searched.L2Searches - before.L2Searches
		if got := read(q); got != want {
			t.Errorf("%s: Charge after %+v gave %+v, a second Search %+v", tc.name, r, got, want)
		}
	}
}
