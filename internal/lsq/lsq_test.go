package lsq

import (
	"testing"
	"testing/quick"
)

// insertStore dispatches a store and resolves its address and data.
func insertStore(q *StoreQueue, tag int64, addr, data uint64) Handle {
	h := q.Insert(tag)
	q.SetAddr(h, addr)
	q.SetData(h, data)
	return h
}

// loadQueue is a baseline's load queue as the pipeline holds it: the
// window that dispatch pushes, commit pops and a squash cuts, and the
// associative queue over it.
type loadQueue struct {
	win Window
	*AssocLoadQueue
}

func newLoadQueue(mode Mode, capacity int) *loadQueue {
	q := new(loadQueue)
	q.win.Reset(capacity)
	q.AssocLoadQueue = NewAssocLoadQueue(mode, &q.win)
	return q
}

// insert dispatches a load: the window queues it, then the associative
// queue records its payload.
func (q *loadQueue) insert(tag int64, pc uint64) Handle {
	if q.win.Full() {
		panic("load queue full")
	}
	h, _ := q.win.Push(tag)
	q.Insert(h, pc)
	return h
}

// pop commits the oldest load: the associative queue drops its payload,
// then the window pops it.
func (q *loadQueue) pop() {
	q.Pop()
	q.win.Pop()
}

// squash cuts every load with tag >= fromTag from the window, then the
// associative queue drops their payload.
func (q *loadQueue) squash(fromTag int64) { q.Squash(q.win.Squash(fromTag)) }

// insertLoads dispatches loads with the given tags, PC 0x100 + 4·i for
// the i-th, and returns their handles.
func insertLoads(q *loadQueue, tags ...int64) []Handle {
	hs := make([]Handle, len(tags))
	for i, tag := range tags {
		hs[i] = q.insert(tag, 0x100+4*uint64(i))
	}
	return hs
}

func TestStoreQueueInsertFull(t *testing.T) {
	q := NewStoreQueue(2)
	q.Insert(1)
	q.Insert(2)
	if q.Len() != 2 || !q.Full() {
		t.Errorf("Len=%d Full=%v", q.Len(), q.Full())
	}
	defer func() {
		if recover() == nil {
			t.Error("insert into full queue should panic")
		}
		if q.Len() != 2 {
			t.Errorf("the refused insert changed Len to %d", q.Len())
		}
	}()
	q.Insert(3)
}

func TestStoreQueueOutOfOrderInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order insert should panic")
		}
	}()
	q := NewStoreQueue(4)
	q.Insert(5)
	q.Insert(3)
}

func TestStoreQueueForwarding(t *testing.T) {
	q := NewStoreQueue(8)
	insertStore(q, 1, 0x1000, 42)
	insertStore(q, 3, 0x2000, 99)

	// Load tag 5 at 0x1000 forwards from store 1.
	r := q.Search(0x1000, 5)
	if !r.Match || r.MatchTag != 1 || r.Data != 42 || !r.DataReady {
		t.Errorf("forward failed: %+v", r)
	}
	if r.UnresolvedOlder {
		t.Error("all addresses resolved; no unresolved flag expected")
	}
	// A load older than both stores sees nothing.
	r = q.Search(0x1000, 0)
	if r.Match || r.UnresolvedOlder {
		t.Errorf("older load should see empty queue: %+v", r)
	}
}

func TestStoreQueueYoungestMatchWins(t *testing.T) {
	q := NewStoreQueue(8)
	insertStore(q, 1, 0x1000, 1)
	insertStore(q, 2, 0x1000, 2)
	r := q.Search(0x1000, 9)
	if r.MatchTag != 2 || r.Data != 2 {
		t.Errorf("should forward from youngest older store: %+v", r)
	}
}

func TestStoreQueueUnresolvedOlder(t *testing.T) {
	q := NewStoreQueue(8)
	insertStore(q, 1, 0x1000, 7)
	q.Insert(2) // address never set
	r := q.Search(0x3000, 9)
	if r.Match {
		t.Error("no address match expected")
	}
	if !r.UnresolvedOlder {
		t.Error("store 2 is unresolved; flag expected")
	}
	// Unresolved store *younger than the match* also sets the flag.
	r = q.Search(0x1000, 9)
	if !r.Match || !r.UnresolvedOlder {
		t.Errorf("match with younger unresolved store: %+v", r)
	}
	if !q.UnresolvedBefore(9) {
		t.Error("UnresolvedBefore should see store 2")
	}
	if q.UnresolvedBefore(2) {
		t.Error("store 1 is resolved")
	}
}

func TestStoreQueueMatchWithoutData(t *testing.T) {
	q := NewStoreQueue(8)
	h := q.Insert(1)
	q.SetAddr(h, 0x1000)
	r := q.Search(0x1000, 5)
	if !r.Match || r.DataReady {
		t.Errorf("address match with pending data: %+v", r)
	}
}

func TestStoreQueueWordGranularity(t *testing.T) {
	q := NewStoreQueue(8)
	insertStore(q, 1, 0x1000, 7)
	if r := q.Search(0x1004, 5); !r.Match {
		t.Error("same word, different byte offset should match")
	}
	if r := q.Search(0x1008, 5); r.Match {
		t.Error("next word should not match")
	}
}

func TestStoreQueueRemoveSquash(t *testing.T) {
	q := NewStoreQueue(8)
	for i := int64(1); i <= 4; i++ {
		q.Insert(i)
	}
	q.Pop()
	if q.OldestTag() != 2 {
		t.Errorf("OldestTag = %d", q.OldestTag())
	}
	q.Squash(3)
	if q.Len() != 1 || q.OldestTag() != 2 {
		t.Errorf("after squash: len=%d oldest=%d", q.Len(), q.OldestTag())
	}
	if q.HasOlderThan(2) {
		t.Error("nothing older than 2 remains")
	}
	if !q.HasOlderThan(3) {
		t.Error("store 2 is older than 3")
	}
	q2 := NewStoreQueue(2)
	if q2.OldestTag() != -1 {
		t.Error("empty queue OldestTag should be -1")
	}
}

func TestRAWViolationDetection(t *testing.T) {
	// Figure 1(a): load issues before an older store's address
	// resolves; the store agen search finds it.
	q := newLoadQueue(Snooping, 8)
	h := insertLoads(q, 5) // load, program order after store tag 3
	q.OnIssue(h[0], 0x1000, -1)
	sq, found := q.OnStoreAgen(0x1000, 3)
	if !found || sq.Tag != 5 || sq.PC != 0x100 {
		t.Fatalf("RAW violation not found: %+v %v", sq, found)
	}
	// Different address: no violation.
	if _, found := q.OnStoreAgen(0x2000, 3); found {
		t.Error("unrelated store should not squash")
	}
}

func TestRAWForwardedFromYoungerStoreIsSafe(t *testing.T) {
	q := newLoadQueue(Snooping, 8)
	h := insertLoads(q, 5)
	// Load forwarded from store tag 4 (younger than resolving store 3).
	q.OnIssue(h[0], 0x1000, 4)
	if _, found := q.OnStoreAgen(0x1000, 3); found {
		t.Error("load with value from a younger store must not squash")
	}
	// But a store younger than the forwarding store is a violation.
	q2 := newLoadQueue(Snooping, 8)
	h2 := insertLoads(q2, 5)
	q2.OnIssue(h2[0], 0x1000, 2)
	if _, found := q2.OnStoreAgen(0x1000, 3); !found {
		t.Error("store between forwarder and load must squash the load")
	}
}

func TestSnoopingInvalidation(t *testing.T) {
	// Figure 1(b): an external invalidation matches an issued load that
	// is not at the head.
	q := newLoadQueue(Snooping, 8)
	h := insertLoads(q, 1, 2)
	q.OnIssue(h[0], 0x1000, -1)
	q.OnIssue(h[1], 0x1040, -1)
	sq, found := q.OnInvalidation(0x1040, 1)
	if !found || sq.Tag != 2 {
		t.Fatalf("snoop should squash load 2: %+v %v", sq, found)
	}
}

func TestSnoopCommitPointExemption(t *testing.T) {
	// The load at the commit point is never squashed (forward progress;
	// paper §2.1)...
	q := newLoadQueue(Snooping, 8)
	h := insertLoads(q, 1)
	q.OnIssue(h[0], 0x1000, -1)
	if _, found := q.OnInvalidation(0x1000, 1); found {
		t.Error("commit-point load must never squash on snoops")
	}
	// ...but merely being the oldest load is not enough: with an
	// uncommitted older store at the ROB head the exemption does not
	// apply (this distinction is what keeps SB sequentially consistent
	// on the baseline).
	if sq, found := q.OnInvalidation(0x1000, 0); !found || sq.Tag != 1 {
		t.Error("oldest load with an uncommitted older store must squash")
	}
}

func TestSnoopInFlightLoadSquashes(t *testing.T) {
	// An issued load whose fill is still outstanding squashes like a
	// completed one: the invalidation strips the block from the local
	// cache, so a later remote write would deliver no snoop here —
	// merely refreshing the value would leave it with no coherence
	// guarantee at commit (the MP litmus test observes that hole as
	// r=1,0 under probe contention).
	q := newLoadQueue(Snooping, 8)
	h := insertLoads(q, 1, 2)
	q.OnIssue(h[0], 0x1000, -1)
	q.OnIssue(h[1], 0x1000, -1)
	sq, found := q.OnInvalidation(0x1000, 0)
	if !found || sq.Tag != 1 {
		t.Fatalf("oldest in-flight load must squash: %+v %v", sq, found)
	}
}

func TestInsulatedLoadIssueSearch(t *testing.T) {
	// Figure 1(c): younger load to the same address already issued.
	q := newLoadQueue(Insulated, 8)
	h := insertLoads(q, 1, 2)
	// Younger load 2 issues first.
	if _, found := q.OnIssue(h[1], 0x1000, -1); found {
		t.Error("first issue cannot conflict")
	}
	// Older load 1 issues to the same address: load 2 must squash.
	sq, found := q.OnIssue(h[0], 0x1000, -1)
	if !found || sq.Tag != 2 {
		t.Fatalf("insulated issue search failed: %+v %v", sq, found)
	}
	// Invalidations are ignored by insulated queues.
	if _, found := q.OnInvalidation(0x1000, -1); found {
		t.Error("insulated queue must not process invalidations")
	}
}

func TestInsulatedDifferentAddressNoSquash(t *testing.T) {
	q := newLoadQueue(Insulated, 8)
	h := insertLoads(q, 1, 2)
	q.OnIssue(h[1], 0x2000, -1)
	if _, found := q.OnIssue(h[0], 0x1000, -1); found {
		t.Error("different addresses must not conflict")
	}
}

func TestHybridMarkThenSquash(t *testing.T) {
	// Power4: the snoop marks; only a later same-address load-issue
	// search squashes marked conflicts.
	q := newLoadQueue(Hybrid, 8)
	h := insertLoads(q, 1, 2, 3)
	q.OnIssue(h[1], 0x1040, -1)
	if _, found := q.OnInvalidation(0x1040, 1); found {
		t.Fatal("hybrid snoop must mark, not squash")
	}
	// Older load 1 issues to the same address: marked load 2 squashes.
	sq, found := q.OnIssue(h[0], 0x1040, -1)
	if !found || sq.Tag != 2 {
		t.Fatalf("marked conflict not squashed: %+v %v", sq, found)
	}
	// Unmarked same-address conflicts do not squash in hybrid mode.
	q2 := newLoadQueue(Hybrid, 8)
	h2 := insertLoads(q2, 1, 2)
	q2.OnIssue(h2[1], 0x1040, -1)
	if _, found := q2.OnIssue(h2[0], 0x1040, -1); found {
		t.Error("hybrid without snoop mark must not squash")
	}
}

func TestSearchAccounting(t *testing.T) {
	q := newLoadQueue(Snooping, 8)
	h := insertLoads(q, 1, 2)
	q.OnIssue(h[0], 0x1000, -1) // snooping: no search at issue
	if q.Stats.Searches != 0 {
		t.Errorf("snooping issue should not search; Searches=%d", q.Stats.Searches)
	}
	q.OnStoreAgen(0x99, 0)
	q.OnInvalidation(0x1000, -1)
	if q.Stats.Searches != 2 {
		t.Errorf("Searches = %d, want 2", q.Stats.Searches)
	}
	if q.Stats.SearchedEntries != 4 {
		t.Errorf("SearchedEntries = %d, want 4", q.Stats.SearchedEntries)
	}

	ins := newLoadQueue(Insulated, 8)
	hi := insertLoads(ins, 1)
	ins.OnIssue(hi[0], 0x1000, -1)
	if ins.Stats.Searches != 1 {
		t.Errorf("insulated issue must search; Searches=%d", ins.Stats.Searches)
	}
}

func TestLoadQueueRemoveSquash(t *testing.T) {
	q := newLoadQueue(Snooping, 8)
	h := insertLoads(q, 1, 2, 3, 4)
	q.pop()
	q.squash(3)
	if q.win.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.win.Len())
	}
	// Remaining load is tag 2 and now at the commit point: snoops skip it.
	q.OnIssue(h[1], 0x1000, -1)
	if _, found := q.OnInvalidation(0x1000, 2); found {
		t.Error("commit-point skip after remove/squash failed")
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{Snooping, Insulated, Hybrid} {
		if m.String() == "?" {
			t.Errorf("mode %d unnamed", m)
		}
	}
}

func TestStoreQueueSearchProperty(t *testing.T) {
	// Property: Search never returns a match younger than the load.
	err := quick.Check(func(addrs []uint16, loadTag uint8) bool {
		if len(addrs) == 0 {
			return true
		}
		q := NewStoreQueue(64)
		for i, a := range addrs {
			if i >= 60 {
				break
			}
			insertStore(q, int64(i), uint64(a)*8, uint64(i))
		}
		r := q.Search(uint64(addrs[0])*8, int64(loadTag))
		return !r.Match || r.MatchTag < int64(loadTag)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}
