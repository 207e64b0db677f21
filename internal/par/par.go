// Package par is the one shared bounded-parallelism helper behind
// every sweep in the simulator: the experiment matrix, the litmus
// campaign, and the CLI seed sweeps. Work is always expressed as n
// independent index-addressed cells whose results land in slots
// indexed by cell, so parallel execution is free to schedule cells in
// any order while the caller's fold over the slots stays
// deterministic. Run is the bare pool; Sweep adds the resilience and
// the checkpoint journal every CLI sweep shares.
package par

// Mutex acquisition order for vbrlint's lockorder analyzer: the
// journal's mu stands alone and must never nest.
//
//vbr:lockorder mu

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n itself when positive,
// otherwise runtime.GOMAXPROCS(0) — saturate the host by default
// instead of a hard-coded constant.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run invokes fn(i) for every i in [0, n), using up to workers
// goroutines (resolved through Workers). Cells are claimed from an
// atomic counter, so scheduling adapts to uneven cell costs without
// channel traffic. workers <= 1 (after resolution, or n == 1) runs
// serially on the calling goroutine. Run returns when every cell is
// done.
func Run(workers, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
