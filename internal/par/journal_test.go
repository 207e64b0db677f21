package par

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type cellResult struct {
	IPC   float64 `json:"ipc"`
	Count uint64  `json:"count"`
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	want := cellResult{IPC: 1.0 / 3.0, Count: 42} // non-terminating float: exactness matters
	if err := j.Record("cell-a", want); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Done() != 1 {
		t.Fatalf("done %d, want 1", j2.Done())
	}
	var got cellResult
	if !j2.Lookup("cell-a", &got) {
		t.Fatal("cell-a not found")
	}
	if got != want {
		t.Fatalf("round trip %+v != %+v (float must be bit-exact)", got, want)
	}
	if j2.Lookup("cell-b", &got) {
		t.Fatal("phantom cell")
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, "fp-v2"); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("want fingerprint mismatch, got %v", err)
	}
}

func TestJournalNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "random.txt")
	if err := os.WriteFile(path, []byte("hello world\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, "fp-v1"); err == nil {
		t.Fatal("want error for non-journal file")
	}
}

func TestJournalPartialTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	j.Record("cell-a", cellResult{IPC: 1, Count: 1})
	j.Record("cell-b", cellResult{IPC: 2, Count: 2})
	j.Close()

	// Simulate a crash mid-write: append half a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"cell-c","result":{"ip`)
	f.Close()

	j2, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Done() != 2 {
		t.Fatalf("done %d, want 2 (partial tail dropped)", j2.Done())
	}
	// The truncated tail must be gone so new records append cleanly.
	if err := j2.Record("cell-c", cellResult{IPC: 3, Count: 3}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	var got cellResult
	if j3.Done() != 3 || !j3.Lookup("cell-c", &got) || got.Count != 3 {
		t.Fatalf("healed journal: done=%d got=%+v", j3.Done(), got)
	}
}

// TestJournalGarbageTailTruncated covers the other crash shape: the
// final line is newline-terminated but unparsable (a torn write that
// happened to include the newline, or disk corruption). The journal
// must drop the garbage line and everything after it, keep the intact
// prefix bit-identical, and accept fresh appends cleanly.
func TestJournalGarbageTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	want := cellResult{IPC: 2.0 / 7.0, Count: 9}
	j.Record("cell-a", want)
	j.Record("cell-b", cellResult{IPC: 1, Count: 1})
	j.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json at all\n")
	f.WriteString(`{"key":"cell-after-garbage","result":{"ipc":3,"count":3}}` + "\n")
	f.Close()

	j2, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	// Everything from the first bad line on is untrusted and cut — the
	// record after the garbage line goes too.
	if j2.Done() != 2 {
		t.Fatalf("done %d, want 2 (garbage tail dropped)", j2.Done())
	}
	var got cellResult
	if !j2.Lookup("cell-a", &got) || got != want {
		t.Fatalf("intact prefix corrupted: got %+v want %+v", got, want)
	}
	// The file must have been rewritten to the valid prefix so appends
	// after recovery parse cleanly on the next open.
	if err := j2.Record("cell-c", cellResult{IPC: 4, Count: 4}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Done() != 3 || !j3.Lookup("cell-a", &got) || got != want {
		t.Fatalf("resume after recovery not bit-identical: done=%d got=%+v", j3.Done(), got)
	}
}

// TestJournalKeys pins the restart-recovery contract: Keys returns
// every recorded key, sorted, regardless of insertion order.
func TestJournalKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"zeta", "alpha", "mid"} {
		j.Record(k, cellResult{})
	}
	want := []string{"alpha", "mid", "zeta"}
	got := j.Keys()
	if len(got) != len(want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys %v, want %v", got, want)
		}
	}
	j.Close()
	j2, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got = j2.Keys()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys after reopen %v, want %v", got, want)
		}
	}
}

func TestJournalRecordAfterCloseDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	// A timed-out straggler finishing late must not crash or write.
	if err := j.Record("late", cellResult{}); err != nil {
		t.Fatalf("record after close: %v", err)
	}
	j2, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Done() != 0 {
		t.Fatal("late record must be dropped")
	}
}

func TestJournalDuplicateKeyKeepsFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Record("cell-a", cellResult{Count: 1})
	j.Record("cell-a", cellResult{Count: 2})
	var got cellResult
	if !j.Lookup("cell-a", &got) || got.Count != 1 {
		t.Fatalf("got %+v, want first record", got)
	}
}

// failingFile wraps a journalFile, failing writes or syncs on command —
// the disk-full / dying-disk analog for the append path.
type failingFile struct {
	inner     journalFile
	failWrite bool
	failSync  bool
}

func (f *failingFile) Write(p []byte) (int, error) {
	if f.failWrite {
		return 0, errors.New("no space left on device")
	}
	return f.inner.Write(p)
}

func (f *failingFile) Sync() error {
	if f.failSync {
		return errors.New("input/output error")
	}
	return f.inner.Sync()
}

func (f *failingFile) Close() error { return f.inner.Close() }

// TestJournalAppendFailureTyped: a failed write or fsync surfaces as a
// *JournalError naming the file and operation, and the cell is NOT
// marked done in memory — the checkpoint never claims more than the
// disk durably holds. Clearing the fault lets the same key record
// normally.
func TestJournalAppendFailureTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ff := &failingFile{inner: j.f}
	j.f = ff

	for _, tc := range []struct {
		name   string
		arm    func()
		wantOp string
	}{
		{"write", func() { ff.failWrite = true; ff.failSync = false }, "append"},
		{"fsync", func() { ff.failWrite = false; ff.failSync = true }, "fsync"},
	} {
		tc.arm()
		err := j.Record("cell-"+tc.name, cellResult{IPC: 1, Count: 2})
		var je *JournalError
		if !errors.As(err, &je) {
			t.Fatalf("%s failure: got %v, want *JournalError", tc.name, err)
		}
		if je.Op != tc.wantOp || je.Path != path || je.Unwrap() == nil {
			t.Fatalf("%s failure: JournalError = %+v, want op %q on %s", tc.name, je, tc.wantOp, path)
		}
		var got cellResult
		if j.Lookup("cell-"+tc.name, &got) {
			t.Fatalf("%s failure: failed append still marked the cell done", tc.name)
		}
	}

	// Fault cleared: the key records and reads back.
	ff.failWrite, ff.failSync = false, false
	if err := j.Record("cell-write", cellResult{IPC: 1, Count: 2}); err != nil {
		t.Fatalf("record after clearing fault: %v", err)
	}
	var got cellResult
	if !j.Lookup("cell-write", &got) || got.Count != 2 {
		t.Fatalf("got %+v, want the recovered record", got)
	}
}

// canonical is json.Marshal's encoding of raw as a json.RawMessage:
// compact and HTML-escaped, the form the journal stores.
func canonical(t testing.TB, raw []byte) []byte {
	t.Helper()
	out, err := json.Marshal(json.RawMessage(raw))
	if err != nil {
		t.Fatalf("canonicalizing %q: %v", raw, err)
	}
	return out
}

// TestJournalCanonicalResults: a result recorded or recovered in any
// formatting is held in canonical form, and a *json.RawMessage lookup
// hands out those stored bytes, capacity-clipped, with no copy.
func TestJournalCanonicalResults(t *testing.T) {
	loose := "{ \"s\": \"<a> & b \u2028\",  \"n\": [ 1e+21, [ ] ] }"
	want := `{"s":"\u003ca\u003e \u0026 b \u2028","n":[1e+21,[]]}`
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	file := "{\"fingerprint\":\"fp-v1\"}\n{\"key\": \"by-hand\",   \"result\": " + loose + "}\n"
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("recorded", json.RawMessage(loose)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"by-hand", "recorded"} {
		var a, b json.RawMessage
		if !j.Lookup(key, &a) || !j.Lookup(key, &b) {
			t.Fatalf("%s: not found", key)
		}
		if string(a) != want {
			t.Errorf("%s: held %s, want %s", key, a, want)
		}
		if cap(a) != len(a) || &a[0] != &b[0] {
			t.Errorf("%s: lookups are not the stored bytes, capacity-clipped", key)
		}
		var v struct{ S string }
		if !j.Lookup(key, &v) || v.S != "<a> & b \u2028" {
			t.Errorf("%s: decoded %+v", key, v)
		}
	}
}

// TestJournalHeldRecordZeroAlloc: recording a key the journal already
// holds, or recording after Close, returns before encoding anything.
func TestJournalHeldRecordZeroAlloc(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "sweep.jsonl"), "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("held", "v"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { j.Record("held", "v") }); n != 0 {
		t.Errorf("a no-op Record of a held key made %.0f allocations, want 0", n)
	}
	j.Close()
	if n := testing.AllocsPerRun(100, func() { j.Record("new", "v") }); n != 0 {
		t.Errorf("a Record after Close made %.0f allocations, want 0", n)
	}
}

// FuzzJournalRecovery opens a journal whose valid header is followed by
// any tail. Recovery must never fail, must hold every recovered result
// in canonical form, and must keep every recovered key across a Record
// and a reopen.
func FuzzJournalRecovery(f *testing.F) {
	for _, tail := range []string{
		"",
		`{"key":"cell-a","result":{"ipc":0.3333333333333333,"count":42}}` + "\n",
		`{"key":"cell-a","result":1}` + "\n" + `{"key":"cell-a","result":2}` + "\n",
		"{\"key\": \"by-hand\", \"result\": { \"s\": \"<a> & b \u2028\", \"n\": [1e+21, [ ]] }}\n",
		`{"key":"spec|9003a0fe7ff699f0","result":{"litmus":{"tests":["SB"],"runs":2,"seed":7}}}` + "\n",
		`{"key":"done|9003a0fe7ff699f0","result":"7b0012afe5eaa71774acf87c42ecfe14"}` + "\n",
		`{"key":"cell-a","result":{"ipc":1}}` + "\nnot json at all\n" + `{"key":"cell-b","result":2}` + "\n",
		`{"key":"cell-a","result":{"ipc":1}}` + "\n" + `{"key":"cell-b","res`,
		"null\n",
		`{"key":"no-result"}` + "\n",
		`{"fingerprint":"fp-v1"}` + "\n",
		"\n\n",
	} {
		f.Add([]byte(tail))
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "sweep.jsonl")
		if err := os.WriteFile(path, append([]byte("{\"fingerprint\":\"fp-v1\"}\n"), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, "fp-v1")
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		keys := j.Keys()
		for _, k := range keys {
			var raw json.RawMessage
			if !j.Lookup(k, &raw) {
				t.Fatalf("recovered key %q has no result", k)
			}
			if c := canonical(t, raw); !bytes.Equal(c, raw) {
				t.Fatalf("recovered result of %q is %q, not canonical %q", k, raw, c)
			}
		}
		if err := j.Record("fuzz-new", json.RawMessage(`{"ok":true}`)); err != nil {
			t.Fatalf("record after recovery: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, err = OpenJournal(path, "fp-v1")
		if err != nil {
			t.Fatalf("reopen failed: %v", err)
		}
		defer j.Close()
		var raw json.RawMessage
		for _, k := range append(keys, "fuzz-new") {
			if !j.Lookup(k, &raw) {
				t.Fatalf("key %q lost across a Record and a reopen", k)
			}
		}
	})
}

// TestJournalConcurrentRecordOnce: Records of one key racing from
// several goroutines write it once; the first to reach the file wins.
func TestJournalConcurrentRecordOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := j.Record("cell-a", cellResult{Count: uint64(g)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(raw, []byte("\n")); lines != 2 {
		t.Fatalf("journal has %d lines, want the header and one record:\n%s", lines, raw)
	}
}
