// The content-addressed result cache: a thin accounting layer over the
// same fsynced JSONL journal the sweep CLIs use for -resume. The
// journal's header fingerprint is the code-version fingerprint, so a
// cache written by one build is never silently consumed by another.

package farm

import (
	"encoding/json"
	"sync"

	"vbmo/internal/farm/cachekey"
	"vbmo/internal/par"
)

// Cache stores cell results keyed by their content-addressed keys.
// Every operation is safe for concurrent workers.
type Cache struct {
	j *par.Journal

	mu     sync.Mutex
	hits   uint64
	misses uint64
}

// OpenCache opens (or creates) the cache journal at path, bound to the
// current code-version fingerprint. A journal written by a different
// build is rejected, exactly like a sweep journal with a mismatched
// fingerprint — stale results are an error, not a fallback.
func OpenCache(path string) (*Cache, error) {
	j, err := par.OpenJournal(path, cachekey.Version())
	if err != nil {
		return nil, err
	}
	return &Cache{j: j}, nil
}

// Get looks key up, fills out with the stored result, and counts the
// hit or miss. A *json.RawMessage receives the stored canonical bytes
// themselves, with no copy and no decode; they are shared with the
// cache and must not be modified. Any other out is decoded from them.
func (c *Cache) Get(key string, out any) bool {
	ok := c.j.Lookup(key, out)
	c.mu.Lock()
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return ok
}

// Put records a result under key in canonical form (json.Marshal's
// encoding: compact and HTML-escaped), fsyncing before returning.
// Duplicate keys are dropped by the journal (first write wins), which
// is exactly right for a content-addressed store: equal keys imply
// equal results.
func (c *Cache) Put(key string, result json.RawMessage) error {
	return c.j.Record(key, result)
}

// Len returns the number of cached results.
func (c *Cache) Len() int { return c.j.Done() }

// Stats returns the lifetime hit and miss counts of this process.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Close flushes and closes the underlying journal.
func (c *Cache) Close() error { return c.j.Close() }
