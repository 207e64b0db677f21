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

// Chunks is an append-only sequence held as consecutive chunks. The
// first chunk may hold any number of elements and every later one
// holds maxChunk, the last up to maxChunk, so At finds an element by
// arithmetic. Append starts the first chunk at firstChunk elements and
// doubles it, copying, up to maxChunk; after that it adds chunks of
// maxChunk. So an unfilled tail is below maxChunk elements, and a long
// run copies only its first maxChunk elements, once.
type Chunks[T any] struct {
	chunks [][]T
}

// Stream is one processor's committed loads and stores in program
// order, each held as a 24-byte record (DESIGN.md §30).
type Stream struct {
	proc int
	recs Chunks[record]
}

// Log is the version log: every write in write order.
type Log = Chunks[Version]

const (
	firstChunk = 64
	maxChunk   = 1024
)

// Append adds v at the end of the sequence. A sequence truncated to
// length zero refills the chunks it held before.
func (c *Chunks[T]) Append(v T) {
	n := len(c.chunks)
	if n == 0 || len(c.chunks[n-1]) == cap(c.chunks[n-1]) {
		switch {
		case n < cap(c.chunks) && cap(c.chunks[:n+1][n]) > 0:
			c.chunks = c.chunks[:n+1]
			c.chunks[n] = c.chunks[n][:0]
			n++
		case n == 1 && cap(c.chunks[0]) < maxChunk:
			grown := make([]T, len(c.chunks[0]), min(2*cap(c.chunks[0]), maxChunk))
			copy(grown, c.chunks[0])
			c.chunks[0] = grown
		default:
			size := maxChunk
			if n == 0 {
				size = firstChunk
			}
			c.chunks = append(c.chunks, make([]T, 0, size))
			n++
		}
	}
	c.chunks[n-1] = append(c.chunks[n-1], v)
}

// Len returns the number of elements in the sequence.
func (c Chunks[T]) Len() int {
	n := 0
	for _, chunk := range c.chunks {
		n += len(chunk)
	}
	return n
}

// At returns the sequence's i-th element.
func (c Chunks[T]) At(i int) T {
	if first := len(c.chunks[0]); i >= first {
		i -= first
		return c.chunks[1+i/maxChunk][i%maxChunk]
	}
	return c.chunks[0][i]
}

// record is one committed memory operation as a Stream holds it. key
// is the word address with the kind in bit 0, which word alignment
// leaves free. w is a store's own identity (Op.Self) or the store a
// load read from (Op.ReadsFrom): the builder reads Self only for
// stores and ReadsFrom only for loads. The processor is the stream's,
// and the index is the record's position in it.
type record struct {
	key   uint64
	value uint64
	w     Writer
}

// kindBit is the bit of record.key that holds the op's kind.
const kindBit = 1

func (r *record) kind() OpKind { return OpKind(r.key & kindBit) }
func (r *record) addr() uint64 { return r.key &^ kindBit }

// NewStream returns an empty stream of processor proc's operations.
func NewStream(proc int) Stream { return Stream{proc: proc} }

// Reset empties s and makes it processor proc's stream, keeping its
// chunks for Append to refill.
func (s *Stream) Reset(proc int) {
	s.proc = proc
	s.recs.chunks = s.recs.chunks[:0]
}

// Append records the next committed operation: its kind, the word
// holding addr (addr &^ 7), the value it read or wrote, and w, a
// store's own identity or the store a load read from.
func (s *Stream) Append(kind OpKind, addr, value uint64, w Writer) {
	s.recs.Append(record{key: addr&^7 | uint64(kind)&kindBit, value: value, w: w})
}

// Len returns the number of operations in the stream.
func (s Stream) Len() int { return s.recs.Len() }

// At returns the stream's i-th operation.
func (s Stream) At(i int) Op {
	r := s.recs.At(i)
	op := Op{Proc: s.proc, Index: i, Kind: r.kind(), Addr: r.addr(), Value: r.value}
	if op.Kind == OpStore {
		op.Self = r.w
	} else {
		op.ReadsFrom = r.w
	}
	return op
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
