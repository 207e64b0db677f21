package pipeline

import (
	"reflect"
	"testing"

	"vbmo/internal/reuse"
)

// TestHotStatePointerFree: the cycle loop names entries by handle, so
// neither an entry nor any slot that names one holds a pointer, and the
// collector neither scans the slab and queues nor fences their stores
// (DESIGN.md §23).
func TestHotStatePointerFree(t *testing.T) {
	var c Core
	for _, typ := range []reflect.Type{
		reflect.TypeOf(entry{}),
		reflect.TypeOf(entry{}.src1), // the handle type
		reflect.TypeOf(c.iq),
		reflect.TypeOf(c.renameMap),
		reflect.TypeOf(c.rob.buf).Elem(),
		reflect.TypeOf(c.pend.entries).Elem(),
		reflect.TypeOf(c.psd).Elem(),
		reflect.TypeOf(c.pool.free).Elem(),
		reflect.TypeOf(c.fetchQ.buf).Elem(),
	} {
		if err := reuse.PointerFree(typ); err != nil {
			t.Error(err)
		}
	}
}
