package par

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSweepAllSucceed(t *testing.T) {
	var n atomic.Int64
	var done []int
	res, fails, replayed, err := Sweep(SweepOptions[int]{
		Workers: 4,
		Done:    func(count, i int, r int) { done = append(done, count) },
	}, 100, func(i int) (int, error) {
		n.Add(1)
		return i * i, nil
	})
	if err != nil || len(fails) != 0 || replayed != 0 {
		t.Fatalf("err %v, failures %v, replayed %d", err, fails, replayed)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d cells, want 100", n.Load())
	}
	for i, r := range res {
		if r != i*i {
			t.Fatalf("result %d = %d, want %d", i, r, i*i)
		}
	}
	// Done runs once per cell, serialized, with a running count.
	for k, c := range done {
		if c != k+1 {
			t.Fatalf("Done counts %v, want 1..100", done)
		}
	}
	if len(done) != 100 {
		t.Fatalf("Done ran %d times, want 100", len(done))
	}
}

func TestSweepPanicKeepsLabelAndStack(t *testing.T) {
	res, fails, _, err := Sweep(SweepOptions[string]{
		Workers: 4,
		Label:   func(i int) string { return fmt.Sprintf("machine=m%d", i) },
	}, 10, func(i int) (string, error) {
		if i == 3 || i == 7 {
			panic(fmt.Sprintf("boom %d", i))
		}
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(fails), fails)
	}
	// Sorted by cell index, carrying the caller's label and the stack.
	if fails[0].Index != 3 || fails[1].Index != 7 {
		t.Fatalf("indices %d,%d", fails[0].Index, fails[1].Index)
	}
	if fails[0].Label != "machine=m3" {
		t.Fatalf("label %q", fails[0].Label)
	}
	if !strings.Contains(fails[0].Err, "boom 3") {
		t.Fatalf("err %q", fails[0].Err)
	}
	if fails[0].Stack == "" {
		t.Fatal("panic failure must carry a stack")
	}
	if !strings.Contains(fails[0].String(), "machine=m3") {
		t.Fatalf("String() %q", fails[0].String())
	}
	if res[3] != "" || res[2] != "ok" {
		t.Fatalf("results %q: a failed cell must hold the zero value", res)
	}
}

func TestSweepRetries(t *testing.T) {
	var attempts atomic.Int64
	res, fails, _, err := Sweep(SweepOptions[int64]{Workers: 1, Retries: 2}, 1, func(i int) (int64, error) {
		if a := attempts.Add(1); a < 3 {
			return 0, errors.New("transient")
		}
		return 42, nil
	})
	if err != nil || len(fails) != 0 {
		t.Fatalf("failures after retries: %v %v", err, fails)
	}
	if attempts.Load() != 3 || res[0] != 42 {
		t.Fatalf("attempts %d, result %d; want 3 and 42", attempts.Load(), res[0])
	}

	attempts.Store(0)
	_, fails, _, err = Sweep(SweepOptions[int64]{Workers: 1, Retries: 2}, 1, func(i int) (int64, error) {
		attempts.Add(1)
		return 0, errors.New("permanent")
	})
	if err != nil || len(fails) != 1 || fails[0].Attempts != 3 {
		t.Fatalf("want 1 failure after 3 attempts: %v %v", err, fails)
	}
}

func TestSweepNoRetryAfterTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, fails, _, err := Sweep(SweepOptions[int]{
		Workers: 2, Timeout: 20 * time.Millisecond,
		Retries: 5, // must NOT retry a timed-out cell
	}, 2, func(i int) (int, error) {
		if i == 1 {
			<-release // hangs past the deadline
		}
		return 1, nil
	})
	if err != nil || len(fails) != 1 {
		t.Fatalf("got %v %v", err, fails)
	}
	f := fails[0]
	if f.Index != 1 || !f.TimedOut || f.Attempts != 1 {
		t.Fatalf("failure %+v", f)
	}
	if !strings.Contains(f.String(), "timed-out") {
		t.Fatalf("String() %q", f.String())
	}
}

// TestSweepReplaysHeldKeys: a second sweep on the same journal replays
// the cells whose keys it holds, runs only the others, and fires Done
// for replayed cells too.
func TestSweepReplaysHeldKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	key := func(i int) string { return fmt.Sprintf("cell=%d", i) }
	body := func(i int) (cellResult, error) {
		return cellResult{IPC: 1 / float64(i+3), Count: uint64(i)}, nil
	}
	first, fails, replayed, err := Sweep(SweepOptions[cellResult]{Workers: 2, Journal: path, Key: key}, 4, body)
	if err != nil || len(fails) != 0 || replayed != 0 {
		t.Fatalf("first sweep: err %v, failures %v, replayed %d", err, fails, replayed)
	}

	var ran []int
	var done int
	second, fails, replayed, err := Sweep(SweepOptions[cellResult]{
		Workers: 1, Journal: path, Key: key,
		Done: func(count, i int, r cellResult) { done = count },
	}, 6, func(i int) (cellResult, error) {
		ran = append(ran, i)
		return body(i)
	})
	if err != nil || len(fails) != 0 {
		t.Fatalf("second sweep: err %v, failures %v", err, fails)
	}
	if replayed != 4 || !reflect.DeepEqual(ran, []int{4, 5}) || done != 6 {
		t.Fatalf("replayed %d, ran %v, Done count %d; want 4, [4 5], 6", replayed, ran, done)
	}
	if !reflect.DeepEqual(second[:4], first) {
		t.Fatalf("replayed results %v differ from the run ones %v", second[:4], first)
	}
}

// TestSweepDropsAbandonedResult: an attempt abandoned at its deadline
// that finishes later changes neither the returned results nor the
// failures, and never reaches the journal.
func TestSweepDropsAbandonedResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	release := make(chan struct{})
	before := runtime.NumGoroutine()
	res, fails, _, err := Sweep(SweepOptions[int]{
		Workers: 2, Timeout: 20 * time.Millisecond,
		Journal: path, Key: func(i int) string { return fmt.Sprintf("cell=%d", i) },
	}, 2, func(i int) (int, error) {
		if i == 1 {
			<-release
			return 99, nil
		}
		return 7, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRes := append([]int(nil), res...)
	wantFails := append([]Failure(nil), fails...)
	close(release)
	for deadline := time.Now().Add(time.Minute); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned attempt is still running after a minute")
		}
		time.Sleep(time.Millisecond)
	}
	if !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(fails, wantFails) {
		t.Fatalf("straggler changed the sweep: results %v (want %v), failures %v (want %v)",
			res, wantRes, fails, wantFails)
	}
	if res[1] != 0 || len(fails) != 1 || fails[0].Index != 1 || !fails[0].TimedOut {
		t.Fatalf("results %v, failures %v; want cell 1 failed and zero", res, fails)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n != 2 || strings.Contains(string(raw), "cell=1") {
		t.Fatalf("journal holds the abandoned cell or lacks the finished one:\n%s", raw)
	}
}
