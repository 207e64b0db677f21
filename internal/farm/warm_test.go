package farm

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// warmSpec is vbrbench's farm job at its quick budgets: a §5.1 matrix
// slice of 6 cells and a litmus slice of 24.
func warmSpec() JobSpec {
	spec := benchFarmSpec()
	spec.Matrix.UniInstr, spec.Matrix.MPInstr, spec.Matrix.MPCores = 2_000, 300, 4
	spec.Litmus.Runs = 5
	return spec
}

// warmServer returns a server that has run warmSpec once, so every
// cell of a resubmission hits the cache. The lease sweeper is slowed to
// an hour so no timer allocates while a test counts.
func warmServer(tb testing.TB) *Server {
	tb.Helper()
	s, err := NewServerWith(tb.TempDir(), ServerOptions{Executors: 2, LeaseTTL: time.Hour}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Stop() })
	j, err := s.enqueue(warmSpec(), false)
	if err != nil {
		tb.Fatal(err)
	}
	s.mu.Lock()
	for j.state() == StateRunning {
		s.cond.Wait()
	}
	st := j.status()
	s.mu.Unlock()
	if st.State != StateDone || st.Total != 30 {
		tb.Fatalf("cold job %+v, want 30 cells done", st)
	}
	return s
}

// enqueueWarm resubmits spec fresh and fails unless every cell hit.
func enqueueWarm(tb testing.TB, s *Server, spec JobSpec) {
	j, err := s.enqueue(spec, true)
	if err != nil {
		tb.Fatal(err)
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	if st.State != StateDone || st.Cached != st.Total || st.Digest == "" {
		tb.Fatalf("warm job %+v, want every cell cached", st)
	}
}

// Heap budget of one warm fresh resubmission of warmSpec, the cost
// that vbrbench's farm workload repeats 2000 times per pass. Measured
// with Go 1.24: 15 allocations and 3,584 bytes per call, of which the
// job's 30 results take 2,640. The bounds leave ~15% headroom.
// Re-deriving the job instead (validating, expanding and keying 30
// cells, decoding every cache hit into a fresh copy, re-compacting
// every result for the digest) cost 1,078 allocations and 270.0 KB per
// call by this test.
const (
	maxWarmAllocs = 17
	maxWarmBytes  = 4 << 10
)

// TestWarmResubmitAllocs gates the heap cost of a warm fresh
// resubmission. Allocation counts are exact, so the gate is
// noise-free.
func TestWarmResubmitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short")
	}
	s, spec := warmServer(t), warmSpec()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { enqueueWarm(t, s, spec) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the counted runs.
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("warm resubmission: %.0f allocations, %d bytes per call", allocs, bytes)
	if allocs > maxWarmAllocs || bytes > maxWarmBytes {
		t.Errorf("warm resubmission: %.0f allocations, %d bytes per call (bound %d, %d)",
			allocs, bytes, maxWarmAllocs, maxWarmBytes)
	}
}

// BenchmarkWarmResubmit times one warm fresh resubmission of warmSpec.
// Run it on each side of an A/B:
//
//	go test -run '^$' -bench WarmResubmit -benchmem ./internal/farm
func BenchmarkWarmResubmit(b *testing.B) {
	s, spec := warmServer(b), warmSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enqueueWarm(b, s, spec)
	}
}

// TestConcurrentWarmResubmits: fresh resubmissions racing on one warm
// server share the held job's read-only cells and keys, and each gets
// the cold job's digest. A resubmission that finds another one's job
// still filling is handed that job, so each waits for its job to end.
func TestConcurrentWarmResubmits(t *testing.T) {
	s := warmServer(t)
	s.mu.Lock()
	want := s.byID[JobID(warmSpec())].digest
	s.mu.Unlock()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				j, err := s.enqueue(warmSpec(), true)
				if err != nil {
					t.Error(err)
					return
				}
				s.mu.Lock()
				for j.state() == StateRunning {
					s.cond.Wait()
				}
				st := j.status()
				s.mu.Unlock()
				if st.State != StateDone || st.Cached != st.Total || st.Digest != want {
					t.Errorf("concurrent warm job %+v, want every cell cached and digest %s", st, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
