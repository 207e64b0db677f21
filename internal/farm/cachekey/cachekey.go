// Package cachekey derives the content-addressed identities the farm
// service caches simulation results under. A cell key is a SHA-256
// digest over the canonical JSON encoding of everything that shapes the
// cell's result — machine configuration, workload parameters, fault
// plan, seed — joined with a code-version fingerprint. Because the
// simulator is enforced-deterministic (a cell's result is a pure
// function of these inputs), two cells with equal keys have bit-identical
// results, across processes, restarts, and hosts running the same code.
package cachekey

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"

	"vbmo/internal/config"
	"vbmo/internal/fault"
	"vbmo/internal/workload"
)

// Schema versions the key derivation itself. Bump it whenever the
// encoding of any keyed structure changes meaning (new semantically
// relevant field, changed seed derivation), so stale cached results
// can never be served for the new semantics.
const Schema = "farm-v1"

// Hash returns the hex SHA-256 of v's canonical JSON encoding.
// encoding/json writes struct fields in declaration order and sorts map
// keys, so the encoding — and therefore the digest — is deterministic
// across processes; no pointer identity or map iteration order leaks in.
func Hash(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		// Every keyed type in this repo is plain data; a marshal failure
		// is a programming error, but a distinguishable non-colliding key
		// is still safer than a panic inside the service.
		raw = []byte(fmt.Sprintf("unmarshalable:%T:%v", v, err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// HashArray returns the hex SHA-256 of the JSON array whose n elements
// are elem(0), ..., elem(n-1), without building the array: it streams
// "[", the elements joined by ",", and "]" into the hash, writing null
// for an empty element as json.Marshal does for a nil json.RawMessage.
//
// Precondition: every element is canonical, a fixed point of
// json.Marshal on a json.RawMessage (compact and HTML-escaped). Then the
// streamed bytes are exactly json.Marshal's encoding of the elements as
// a []json.RawMessage, and HashArray equals Hash over that slice. Hash
// re-encodes each element and HashArray does not, so for any other
// input the two differ.
func HashArray(n int, elem func(i int) []byte) string {
	h := sha256.New()
	// Write on a hash.Hash never returns an error.
	write := func(b []byte) { _, _ = h.Write(b) }
	write(arrayOpen)
	for i := 0; i < n; i++ {
		if i > 0 {
			write(arraySep)
		}
		e := elem(i)
		if len(e) == 0 {
			e = jsonNull
		}
		write(e)
	}
	write(arrayClose)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

var (
	arrayOpen  = []byte("[")
	arraySep   = []byte(",")
	arrayClose = []byte("]")
	jsonNull   = []byte("null")
)

// Machine returns the digest of a machine configuration. Two configs
// that differ in any field — sizes, latencies, filter composition —
// get different digests; renaming alone also changes the digest, which
// is deliberate: the registry name is part of what jobs request.
func Machine(mc config.Machine) string { return Hash(mc) }

// Workload returns the digest of a workload parameter block.
func Workload(w workload.Params) string { return Hash(w) }

// Fault returns the digest of a fault plan; the nil plan (injection
// off) has its own stable digest distinct from any enabled plan.
func Fault(fc *fault.Config) string {
	if fc == nil {
		return Hash("fault-off")
	}
	return Hash(*fc)
}

var (
	versionOnce sync.Once
	versionVal  string
)

// Version returns the code-version fingerprint: the key schema joined
// with the build's VCS revision (plus a dirty marker for modified
// trees). Binaries built without VCS stamping — go test, go run — all
// report "dev": they share cached results with each other but never
// with a stamped release build.
func Version() string {
	versionOnce.Do(func() {
		rev, dirty := "dev", ""
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				switch s.Key {
				case "vcs.revision":
					rev = s.Value
				case "vcs.modified":
					if s.Value == "true" {
						dirty = "+dirty"
					}
				}
			}
		}
		versionVal = Schema + "|" + rev + dirty
	})
	return versionVal
}

// Join builds a composite cache key from parts. Parts are joined with a
// separator that cannot appear in a hex digest or a decimal number, so
// distinct part vectors cannot collide by concatenation.
func Join(parts ...string) string { return strings.Join(parts, "|") }
