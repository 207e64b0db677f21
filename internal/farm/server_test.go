package farm

import (
	"encoding/json"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func startServer(t *testing.T, dir string, executors int) (*Server, *Client) {
	t.Helper()
	s, err := NewServer(dir, executors, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		s.Stop()
		t.Fatal(err)
	}
	return s, &Client{Base: "http://" + addr.String()}
}

// TestServerEndToEnd drives the whole service over real HTTP: submit a
// mixed litmus+bench job, wait, fetch results, then resubmit fresh and
// watch every cell come back from the content-addressed cache with an
// identical digest.
func TestServerEndToEnd(t *testing.T) {
	srv, c := startServer(t, t.TempDir(), 4)
	defer srv.Stop()

	spec := testSpec()
	st, err := c.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 5 {
		t.Fatalf("job has %d cells, want 5", st.Total)
	}
	st, err = c.Wait(st.ID, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job state %s (%s), want done", st.State, st.Error)
	}
	if st.Executed != st.Total || st.Cached != 0 {
		t.Fatalf("first run executed=%d cached=%d, want %d/0",
			st.Executed, st.Cached, st.Total)
	}
	if st.Digest == "" {
		t.Fatal("done job has no digest")
	}
	res, err := c.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != st.Total || res.Digest != st.Digest {
		t.Fatalf("results len=%d digest=%s, want %d/%s",
			len(res.Results), res.Digest, st.Total, st.Digest)
	}
	for i, cr := range res.Results {
		if cr.Index != i || cr.Error != "" || len(cr.Result) == 0 {
			t.Fatalf("cell %d malformed: %+v", i, cr)
		}
	}

	// Fresh resubmission: same ID, zero re-simulation, identical digest.
	st2, err := c.Submit(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("resubmission changed the job ID: %s vs %s", st2.ID, st.ID)
	}
	st2, err = c.Wait(st2.ID, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached != st2.Total || st2.Executed != 0 {
		t.Fatalf("fresh rerun executed=%d cached=%d, want 0/%d",
			st2.Executed, st2.Cached, st2.Total)
	}
	if st2.Digest != st.Digest {
		t.Fatalf("cached rerun digest %s != original %s", st2.Digest, st.Digest)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.CellsExecuted != uint64(st.Total) || m.CellsCached != uint64(st.Total) {
		t.Fatalf("metrics executed=%d cached=%d, want %d/%d",
			m.CellsExecuted, m.CellsCached, st.Total, st.Total)
	}
	if m.JobsCompleted != 2 {
		t.Fatalf("metrics jobs_completed=%d, want 2", m.JobsCompleted)
	}
}

// TestServerRejectsBadSpec: validation errors surface as HTTP 400s with
// the server's message, not as accepted-then-failed jobs.
func TestServerRejectsBadSpec(t *testing.T) {
	srv, c := startServer(t, t.TempDir(), 1)
	defer srv.Stop()
	if _, err := c.Submit(JobSpec{}, false); err == nil {
		t.Fatal("empty job accepted")
	}
	if _, err := c.Submit(JobSpec{Litmus: &LitmusSpec{
		Runs: 1, Tests: []string{"no-such-test"}}}, false); err == nil {
		t.Fatal("unknown test accepted")
	}
}

// TestServerCrashRestartRecovery is the acceptance scenario: submit over
// HTTP, kill the server mid-job, restart on the same state directory,
// resubmit, and require (a) bit-identical results to an uninterrupted
// control run and (b) at least half the recovered job served from the
// journal-backed cache rather than re-simulated.
func TestServerCrashRestartRecovery(t *testing.T) {
	spec := JobSpec{Litmus: &LitmusSpec{Runs: 3, Seed: 13}} // full battery × all configs

	// Control: an uninterrupted run in its own state directory.
	ctrl, cc := startServer(t, t.TempDir(), 4)
	st, err := cc.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err = cc.Wait(st.ID, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("control job state %s (%s)", st.State, st.Error)
	}
	controlDigest := st.Digest
	total := st.Total
	ctrl.Stop()

	// Victim: same spec on a fresh directory, killed once at least half
	// the cells have landed. One shard throttles throughput so the kill
	// reliably catches the job mid-flight.
	dir := t.TempDir()
	srv1, c1 := startServer(t, dir, 1)
	if _, err := c1.Submit(spec, false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for {
		cur, err := c1.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Done*2 >= cur.Total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %d/%d", cur.Done, cur.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv1.Stop() // abrupt: queued cells dropped, journals closed

	// Restart on the same directory: recovery re-enqueues the
	// interrupted job from the jobs journal; its completed cells hit the
	// result cache. If the job happened to finish before the kill, the
	// resubmission below re-runs it through the cache instead — either
	// way every previously-done cell must be a hit.
	srv2, c2 := startServer(t, dir, 4)
	defer srv2.Stop()
	st2, err := c2.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("recovered job ID %s != original %s", st2.ID, st.ID)
	}
	st2, err = c2.Wait(st2.ID, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone {
		t.Fatalf("recovered job state %s (%s)", st2.State, st2.Error)
	}
	if st2.Digest != controlDigest {
		t.Fatalf("recovered digest %s != control %s — restart broke bit-identity",
			st2.Digest, controlDigest)
	}
	if st2.Cached*2 < total {
		t.Fatalf("only %d/%d cells served from cache after restart, want >= half",
			st2.Cached, total)
	}
	if st2.Executed+st2.Cached != total {
		t.Fatalf("executed %d + cached %d != total %d",
			st2.Executed, st2.Cached, total)
	}
}

// holdFirstCell stands in for s's cell execution: the first cell a
// local executor runs blocks until release is called, and held closes
// once it has been entered. ran counts the cells executed. Register the
// server's Stop with t.Cleanup before calling this, so a failing test
// releases the executor before Stop waits for it.
func holdFirstCell(t *testing.T, s *Server) (held <-chan struct{}, release func(), ran *atomic.Int32) {
	t.Helper()
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	ran = new(atomic.Int32)
	s.execute = func(c Cell) (json.RawMessage, error) {
		if ran.Add(1) == 1 {
			close(entered)
			<-gate
		}
		return c.Execute()
	}
	return entered, release, ran
}

// TestStopDropsQueuedCells: Stop is the crash analog. With the one
// executor held inside its first cell, the other three cells are still
// queued; Stop drops exactly those, lets the in-flight cell finish into
// the cache, and leaves the job interrupted.
func TestStopDropsQueuedCells(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServerWith(dir, ServerOptions{Executors: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Stop() })
	held, release, ran := holdFirstCell(t, s)

	j, err := s.enqueue(e2eSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	<-held
	stopped := make(chan int, 1)
	go func() { stopped <- s.Stop() }()
	waitUntil(t, "Stop to close the queue", func() bool {
		s.leaseMu.Lock()
		defer s.leaseMu.Unlock()
		return s.closed
	})
	release()
	if dropped := <-stopped; dropped != 3 {
		t.Fatalf("Stop dropped %d queued cells, want 3", dropped)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d cells ran, want only the in-flight one", n)
	}
	s.mu.Lock()
	state := j.state()
	s.mu.Unlock()
	if state != StateInterrupted {
		t.Fatalf("job state %s after Stop, want %s", state, StateInterrupted)
	}

	cache, err := OpenCache(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	for i, key := range j.keys {
		var raw json.RawMessage
		if got := cache.Get(key, &raw); got != (i == 0) {
			t.Fatalf("cell %d cached=%t, want only the in-flight cell 0 cached", i, got)
		}
	}
}
