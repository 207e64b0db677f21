package lsq

import (
	"reflect"
	"testing"
)

// driveQueues runs a pseudo-random dispatch/agen/search/commit stream
// through a store queue and a load queue and returns every answer plus
// the final counters.
func driveQueues(sq *StoreQueue, lq *AssocLoadQueue, seed uint64) []any {
	var out []any
	x := seed
	for tag := int64(0); tag < 3000; tag++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 33) % 64 * 8
		switch x >> 61 {
		case 0, 1:
			sq.Insert(tag, uint64(tag))
			sq.SetAddr(tag, addr)
			sq.SetData(tag, x)
			sqz, ok := lq.OnStoreAgen(addr, tag)
			out = append(out, sqz, ok)
		case 2, 3:
			lq.Insert(tag, uint64(tag))
			out = append(out, sq.Search(addr, tag))
			sqz, ok := lq.OnIssue(tag, addr, -1)
			out = append(out, sqz, ok)
		case 4:
			sqz, ok := lq.OnInvalidation(addr, tag)
			out = append(out, sqz, ok)
		case 5:
			if t := sq.OldestTag(); t >= 0 {
				sq.Remove(t)
			}
		default:
			sq.Squash(tag - int64(x>>40%8))
			lq.Squash(tag - int64(x>>45%8))
		}
	}
	return append(out, sq.Len(), lq.Len(), sq.Searches, sq.L2Searches, sq.L2Filtered,
		lq.Searches, lq.SearchedEntries, lq.BloomFiltered, lq.RAWSquashes, lq.InvalSquashes)
}

// TestQueuesResetMatchNew: used queues rebuilt by Reset (two-level and
// Bloom filtering enabled again afterwards, as the pipeline does)
// answer exactly like new ones.
func TestQueuesResetMatchNew(t *testing.T) {
	build := func(sq *StoreQueue, lq *AssocLoadQueue) {
		sq.Reset(24)
		sq.EnableTwoLevel(4, 3, 64)
		lq.Reset(Snooping, 32)
		lq.EnableBloom(128, 2)
	}
	sq, lq := new(StoreQueue), new(AssocLoadQueue)
	build(sq, lq)
	driveQueues(sq, lq, 1)
	build(sq, lq)
	freshSQ, freshLQ := NewStoreQueue(24), NewAssocLoadQueue(Snooping, 32)
	freshSQ.EnableTwoLevel(4, 3, 64)
	freshLQ.EnableBloom(128, 2)
	if got, want := driveQueues(sq, lq, 2), driveQueues(freshSQ, freshLQ, 2); !reflect.DeepEqual(got, want) {
		t.Fatal("reset queues diverged from new ones")
	}
}
