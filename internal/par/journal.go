package par

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// JournalError is a failed write or fsync on the journal's append path.
// Appends are the journal's durability promise — a sweep that keeps
// running after a silent append failure would re-simulate "checkpointed"
// cells on resume, and a farm cache that dropped a result would serve a
// cell cheaply now and expensively later — so the error is typed: any
// caller can errors.As for it and distinguish "the disk is failing"
// from "this cell misbehaved".
type JournalError struct {
	Path string // journal file
	Op   string // "append" or "fsync"
	Err  error  // the underlying filesystem error
}

func (e *JournalError) Error() string {
	return fmt.Sprintf("par: journal %s: %s failed: %v", e.Path, e.Op, e.Err)
}

func (e *JournalError) Unwrap() error { return e.Err }

// journalFile is the slice of *os.File the journal's append path needs;
// an interface so tests can inject disk-full-style failures.
type journalFile interface {
	io.WriteCloser
	Sync() error
}

// Journal is a JSONL checkpoint for sweeps: one header line binding the
// file to a sweep fingerprint, then one line per completed cell
// ({"key":..., "result":...}), appended and fsynced as cells finish. A
// sweep killed mid-run leaves at worst one truncated trailing line,
// which reopening tolerates; -resume then replays completed cells from
// the journal instead of re-simulating them. Results round-trip through
// encoding/json, whose float64 encoding is exact (shortest-form), so a
// resumed sweep's folds are bit-identical to an uninterrupted run's.
type Journal struct {
	mu     sync.Mutex
	f      journalFile
	path   string
	closed bool
	done   map[string]json.RawMessage
}

// journalLine is one cell record on disk.
type journalLine struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// journalHeader is the first line of the file.
type journalHeader struct {
	Fingerprint string `json:"fingerprint"`
}

// OpenJournal opens (or creates) the checkpoint at path. fingerprint
// must capture every input that shapes cell results (config, machine
// set, seeds, code-visible versions); a journal whose header carries a
// different fingerprint belongs to a different sweep and is discarded
// with an error rather than silently mixed in.
func OpenJournal(path, fingerprint string) (*Journal, error) {
	j := &Journal{path: path, done: make(map[string]json.RawMessage)}
	// validLen is how many leading bytes of the existing file hold intact
	// lines; everything after (a truncated tail from a killed run, or an
	// unparsable record) is cut before appending resumes.
	validLen := int64(0)
	if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
		rest := raw
		first := true
		for {
			idx := bytes.IndexByte(rest, '\n')
			if idx < 0 {
				break // partial trailing line: discard
			}
			line := rest[:idx]
			if first {
				first = false
				var h journalHeader
				if err := json.Unmarshal(line, &h); err != nil || h.Fingerprint == "" {
					return nil, fmt.Errorf("par: %s is not a sweep journal", path)
				}
				if h.Fingerprint != fingerprint {
					return nil, fmt.Errorf("par: journal %s belongs to a different sweep (fingerprint %q, want %q)",
						path, h.Fingerprint, fingerprint)
				}
			} else {
				var l journalLine
				if err := json.Unmarshal(line, &l); err != nil {
					break
				}
				// The file is outside input, so its results may be
				// formatted any way. Re-marshal each into the form
				// Record stores, so that Lookup hands out canonical
				// bytes however the line was written.
				raw, err := json.Marshal(l.Result)
				if err != nil {
					break
				}
				j.done[l.Key] = raw
			}
			validLen += int64(idx) + 1
			rest = rest[idx+1:]
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	j.f = f
	if err := f.Truncate(validLen); err != nil {
		_ = f.Close() // the write/truncate error is the one worth reporting
		return nil, err
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		_ = f.Close() // the write/truncate error is the one worth reporting
		return nil, err
	}
	if validLen == 0 {
		hdr, _ := json.Marshal(journalHeader{Fingerprint: fingerprint})
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			_ = f.Close() // the write/truncate error is the one worth reporting
			return nil, &JournalError{Path: path, Op: "append", Err: err}
		}
		if err := f.Sync(); err != nil {
			_ = f.Close() // the write/truncate error is the one worth reporting
			return nil, &JournalError{Path: path, Op: "fsync", Err: err}
		}
	}
	return j, nil
}

// Done returns how many completed cells the journal holds.
func (j *Journal) Done() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Keys returns every recorded cell key in sorted order. Restart
// recovery scans these to find work that completed before a crash.
func (j *Journal) Keys() []string {
	j.mu.Lock()
	keys := make([]string, 0, len(j.done))
	for k := range j.done {
		keys = append(keys, k)
	}
	j.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Lookup reports whether key holds a result and, if so, fills out with
// it. A *json.RawMessage receives the stored bytes themselves, with no
// copy and no decode: they are canonical (compact and HTML-escaped, a
// fixed point of json.Marshal on a json.RawMessage), capacity-clipped,
// and shared with the journal and every other caller, so they must not
// be modified. Any other out is decoded from them.
func (j *Journal) Lookup(key string, out any) bool {
	j.mu.Lock()
	raw, ok := j.done[key]
	j.mu.Unlock()
	if !ok {
		return false
	}
	if p, isRaw := out.(*json.RawMessage); isRaw {
		*p = raw[:len(raw):len(raw)]
		return true
	}
	return json.Unmarshal(raw, out) == nil
}

// Record appends one completed cell and fsyncs. It stores the result as
// json.Marshal encodes it. Safe for concurrent workers; a key already
// held is a no-op that returns before encoding anything, and so are
// calls after Close (a timed-out straggler may finish after the sweep
// gave up on it). Write and fsync failures come back as a
// *JournalError, and the cell is NOT marked done in memory — the
// checkpoint only ever claims what the disk durably holds.
func (j *Journal) Record(key string, result any) error {
	j.mu.Lock()
	_, held := j.done[key]
	skip := held || j.closed
	j.mu.Unlock()
	if skip {
		return nil
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return err
	}
	line, err := json.Marshal(journalLine{Key: key, Result: raw})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// Re-check: a concurrent Record of the same key, or Close, may have
	// won while this one encoded.
	if j.closed {
		return nil
	}
	if _, ok := j.done[key]; ok {
		return nil
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return &JournalError{Path: j.path, Op: "append", Err: err}
	}
	if err := j.f.Sync(); err != nil {
		return &JournalError{Path: j.path, Op: "fsync", Err: err}
	}
	j.done[key] = raw
	return nil
}

// Close flushes and closes the journal file. Further Records are
// silently dropped.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}
