// Package consistency implements the paper's back-end memory
// consistency checker (§3.1, Figure 4): the constraint graph — nodes are
// committed memory operations, edges are program order plus the RAW,
// WAW and WAR dependence orders per location — and its cycle test. An
// acyclic graph means the execution has a total order, i.e. it is
// sequentially consistent; a cycle is a consistency violation.
//
// Reads-from edges require knowing which store each load observed, so
// the simulator maintains a Shadow image mapping each word to the
// identity of its last writer; loads sample it at the same instant they
// sample their value. The Shadow also logs every write. That log and
// each processor's committed loads and stores, recorded as a Stream,
// are Build's input.
package consistency

import "fmt"

// Writer identifies a store operation (or the initial memory value).
// The zero Writer is the initial value.
type Writer uint64

// InitialValue is the Writer of never-written words.
const InitialValue Writer = 0

// DMAProc is the pseudo-processor id used for DMA writes.
const DMAProc = 0xfff

// MakeWriter packs a processor id and that processor's store sequence
// number.
func MakeWriter(proc int, storeSeq uint64) Writer {
	return Writer(uint64(proc+1)<<48 | (storeSeq & 0xffffffffffff))
}

// Proc returns the writing processor (-1 for the initial value).
func (w Writer) Proc() int { return int(w>>48) - 1 }

// StoreSeq returns the writer's per-processor store sequence number.
func (w Writer) StoreSeq() uint64 { return uint64(w) & 0xffffffffffff }

// Version is one entry of the version log: a store of Value to the
// word Addr by writer W.
type Version struct {
	Addr  uint64
	W     Writer
	Value uint64
}

// Chunks is an append-only sequence held as consecutive chunks:
// Chunks[T]{s} is the one-chunk sequence of a slice. Append fills the
// last chunk and then starts one twice its size, up to maxChunk
// elements, so recording a run never copies what it has already
// recorded.
type Chunks[T any] [][]T

// Stream is one processor's committed memory operations in program
// order.
type Stream = Chunks[Op]

// Log is the version log: every write in write order.
type Log = Chunks[Version]

const (
	firstChunk = 64
	maxChunk   = 8192
)

// Append adds v at the end of the sequence. A sequence truncated to
// length zero refills the chunks it held before.
func (c *Chunks[T]) Append(v T) {
	n := len(*c)
	if n == 0 || len((*c)[n-1]) == cap((*c)[n-1]) {
		if n < cap(*c) && cap((*c)[:n+1][n]) > 0 {
			*c = (*c)[:n+1]
			(*c)[n] = (*c)[n][:0]
		} else {
			size := firstChunk
			if n > 0 {
				size = min(2*cap((*c)[n-1]), maxChunk)
			}
			*c = append(*c, make([]T, 0, size))
		}
		n++
	}
	(*c)[n-1] = append((*c)[n-1], v)
}

// Len returns the number of elements in the sequence.
func (c Chunks[T]) Len() int {
	n := 0
	for _, chunk := range c {
		n += len(chunk)
	}
	return n
}

// At returns the sequence's i-th element.
func (c Chunks[T]) At(i int) T {
	j := i
	for _, chunk := range c {
		if j < len(chunk) {
			return chunk[j]
		}
		j -= len(chunk)
	}
	panic(fmt.Sprintf("consistency: element %d is past the end of a %d-element sequence", i, c.Len()))
}

// Shadow tracks, per word, the identity of the last committed store,
// and logs every store in write order. A word's version chain (its
// coherence order, with values) is the log filtered to that word, in
// order, which is how Build reads it.
type Shadow struct {
	last map[uint64]Writer
	// Log holds every write in write order, DMA writes included.
	Log Log
}

// NewShadow creates an empty shadow image.
func NewShadow() *Shadow {
	return &Shadow{last: make(map[uint64]Writer)}
}

// Write records a store commit of value to addr by the given writer.
func (s *Shadow) Write(addr uint64, w Writer, value uint64) {
	addr &^= 7
	s.last[addr] = w
	s.Log.Append(Version{Addr: addr, W: w, Value: value})
}

// Read returns the identity of addr's last writer.
func (s *Shadow) Read(addr uint64) Writer {
	return s.last[addr&^7]
}
