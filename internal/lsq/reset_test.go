package lsq

import (
	"reflect"
	"testing"
)

// driveQueues runs a pseudo-random dispatch/agen/search/commit stream
// through a store queue and a load queue and returns every answer plus
// the final counters.
func driveQueues(sq *StoreQueue, lq *loadQueue, seed uint64) []any {
	var out []any
	x := seed
	for tag := int64(0); tag < 3000; tag++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 33) % 64 * 8
		switch x >> 61 {
		case 0, 1:
			if !sq.Full() {
				h := sq.Insert(tag)
				sq.SetAddr(h, addr)
				sq.SetData(h, x)
			}
			sqz, ok := lq.OnStoreAgen(addr, tag)
			out = append(out, sqz, ok)
		case 2, 3:
			out = append(out, sq.Search(addr, tag))
			var sqz Squash
			var ok bool
			if !lq.win.Full() {
				sqz, ok = lq.OnIssue(lq.insert(tag, uint64(tag)), addr, -1)
			}
			out = append(out, sqz, ok)
		case 4:
			sqz, ok := lq.OnInvalidation(addr, tag)
			out = append(out, sqz, ok)
		case 5:
			if sq.Len() > 0 {
				sq.Pop()
			}
		default:
			sq.Squash(tag - int64(x>>40%8))
			lq.squash(tag - int64(x>>45%8))
		}
	}
	return append(out, sq.Len(), lq.win.Len(), sq.Stats, lq.Stats)
}

// TestQueuesResetMatchNew: used queues rebuilt by Reset (two-level and
// Bloom filtering enabled again afterwards, as the pipeline does)
// answer exactly like new ones.
func TestQueuesResetMatchNew(t *testing.T) {
	build := func(sq *StoreQueue, lq *loadQueue) {
		sq.Reset(24)
		sq.EnableTwoLevel(4, 3, 64)
		lq.win.Reset(32)
		lq.Reset(Snooping, &lq.win)
		lq.EnableBloom(128, 2)
	}
	sq, lq := new(StoreQueue), &loadQueue{AssocLoadQueue: new(AssocLoadQueue)}
	build(sq, lq)
	driveQueues(sq, lq, 1)
	build(sq, lq)
	freshSQ, freshLQ := NewStoreQueue(24), newLoadQueue(Snooping, 32)
	freshSQ.EnableTwoLevel(4, 3, 64)
	freshLQ.EnableBloom(128, 2)
	if got, want := driveQueues(sq, lq, 2), driveQueues(freshSQ, freshLQ, 2); !reflect.DeepEqual(got, want) {
		t.Fatal("reset queues diverged from new ones")
	}
}
