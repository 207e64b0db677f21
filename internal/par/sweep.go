package par

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"vbmo/internal/farm/cachekey"
)

// Failure records one sweep cell that did not complete. The Label is
// the cell's identity in the caller's vocabulary ("machine=X
// workload=Y sample=3"), so a crash deep inside a worker is reportable
// without reconstructing the index mapping.
type Failure struct {
	// Index is the cell's position in [0, n).
	Index int `json:"index"`
	// Label is the caller-supplied cell identity.
	Label string `json:"label"`
	// Err is the final error (or recovered panic) message.
	Err string `json:"err"`
	// Stack is the goroutine stack at the final panic ("" for plain
	// errors and timeouts).
	Stack string `json:"stack,omitempty"`
	// Attempts is how many times the cell ran (1 + retries used).
	Attempts int `json:"attempts"`
	// TimedOut marks a cell abandoned at its wall-clock deadline.
	TimedOut bool `json:"timed_out,omitempty"`
}

func (f Failure) String() string {
	s := fmt.Sprintf("cell %d (%s): %s [attempts=%d", f.Index, f.Label, f.Err, f.Attempts)
	if f.TimedOut {
		s += " timed-out"
	}
	return s + "]"
}

// retryBackoff is the sleep before a cell's first retry; it doubles
// before each later one.
const retryBackoff = 50 * time.Millisecond

// SweepOptions configure Sweep over cells whose result type is T.
type SweepOptions[T any] struct {
	// Workers as in Run/Workers.
	Workers int
	// Retries is how many times a failed cell is re-attempted (0 = run
	// once), after 50 ms, then 100 ms, doubling. Retries are for
	// transient host-level trouble; a deterministic panic fails every
	// attempt and lands in the failures with the attempt count.
	Retries int
	// Timeout, when positive, is each attempt's wall-clock deadline. An
	// attempt that overruns is abandoned and not retried: its goroutine
	// keeps running (Go cannot kill it), and its result is dropped when
	// it finishes, so the cell keeps its failure. Wall-clock deadlines
	// are inherently nondeterministic; leave 0 for reproducible sweeps.
	Timeout time.Duration
	// Journal, when non-empty, is the sweep's checkpoint: a Journal
	// headed by cachekey.Version(), the header of the farm's cache. A
	// cell whose key it holds is replayed instead of run, and every
	// cell that completes is recorded before its result is published.
	Journal string
	// Key names cell i in the journal; required with a Journal. A key
	// must capture every input that shapes the cell's result.
	Key func(i int) string
	// Label names cell i in failure reports (nil = "cell <i>").
	Label func(i int) string
	// Done, when non-nil, is called once per cell that completes or is
	// replayed, with how many have so far. Calls never overlap.
	Done func(done, i int, r T)
}

// Sweep runs run(i) for every cell i in [0, n) on a Run pool, with
// per-cell panic recovery, bounded retry, optional deadlines and an
// optional checkpoint journal: the one resilient sweep loop behind the
// litmus, matrix and seed sweeps. It returns the results in cell order,
// the failed cells sorted by index (a failed cell's result is T's zero
// value), and how many cells were replayed from the journal. Only a
// journal that cannot be opened, or that belongs to a different build,
// is an error.
func Sweep[T any](o SweepOptions[T], n int, run func(i int) (T, error)) (results []T, failures []Failure, replayed int, err error) {
	var journal *Journal
	if o.Journal != "" {
		if journal, err = OpenJournal(o.Journal, cachekey.Version()); err != nil {
			return nil, nil, 0, err
		}
		// Every record was fsynced as it was made, so Close has nothing
		// left to make durable and its error changes no result.
		defer journal.Close()
	}
	results = make([]T, n)
	done := 0
	finish := func(i int) {
		done++
		if o.Done != nil {
			o.Done(done, i, results[i])
		}
	}
	todo := make([]int, 0, n)
	for i := range results {
		var r T
		if journal != nil && journal.Lookup(o.Key(i), &r) {
			results[i] = r
			replayed++
			finish(i)
			continue
		}
		todo = append(todo, i)
	}
	// Workers hand each finished cell to this goroutine, which alone
	// collects failures and calls Done.
	type finished struct {
		i int
		f *Failure
	}
	out := make(chan finished)
	go func() {
		Run(o.Workers, len(todo), func(t int) {
			i := todo[t]
			r, f := runCell(o, journal, i, run)
			if f == nil {
				// Only the worker that ran cell i writes its slot, and an
				// abandoned attempt never gets here: its result stays in
				// a channel nobody reads.
				results[i] = r
			}
			out <- finished{i, f}
		})
		close(out)
	}()
	for c := range out {
		if c.f != nil {
			failures = append(failures, *c.f)
			continue
		}
		finish(c.i)
	}
	sort.Slice(failures, func(a, b int) bool { return failures[a].Index < failures[b].Index })
	return results, failures, replayed, nil
}

// runCell drives cell i through its attempts and records a completed
// result in the journal; a nil Failure means success.
func runCell[T any](o SweepOptions[T], journal *Journal, i int, run func(int) (T, error)) (T, *Failure) {
	backoff := retryBackoff
	for n := 1; ; n++ {
		a := try(o.Timeout, i, run)
		if a.err == nil && journal != nil {
			if err := journal.Record(o.Key(i), a.r); err != nil {
				a.err = fmt.Errorf("checkpoint: %w", err)
			}
		}
		if a.err == nil {
			return a.r, nil
		}
		if n > o.Retries || a.timedOut {
			var zero T
			return zero, &Failure{
				Index: i, Label: cellLabel(o.Label, i), Err: a.err.Error(),
				Stack: a.stack, Attempts: n, TimedOut: a.timedOut,
			}
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

func cellLabel(label func(int) string, i int) string {
	if label != nil {
		return label(i)
	}
	return fmt.Sprintf("cell %d", i)
}

// attempt is one run of a cell: its result, or why it failed.
type attempt[T any] struct {
	r        T
	err      error
	stack    string // the goroutine stack at a panic
	timedOut bool
}

// try runs one attempt with panic recovery and an optional deadline.
func try[T any](timeout time.Duration, i int, run func(int) (T, error)) attempt[T] {
	call := func() (a attempt[T]) {
		defer func() {
			if p := recover(); p != nil {
				a = attempt[T]{err: fmt.Errorf("panic: %v", p), stack: string(debug.Stack())}
			}
		}()
		a.r, a.err = run(i)
		return a
	}
	if timeout <= 0 {
		return call()
	}
	// Buffered, so an abandoned attempt can still deliver its result
	// and exit; nobody reads it.
	ch := make(chan attempt[T], 1)
	go func() { ch <- call() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case a := <-ch:
		return a
	case <-timer.C:
		return attempt[T]{err: fmt.Errorf("deadline exceeded (%s)", timeout), timedOut: true}
	}
}
