package consistency

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWriterPacking(t *testing.T) {
	w := MakeWriter(5, 123)
	if w.Proc() != 5 || w.StoreSeq() != 123 {
		t.Errorf("roundtrip failed: proc=%d seq=%d", w.Proc(), w.StoreSeq())
	}
	if InitialValue.Proc() != -1 {
		t.Errorf("initial value proc = %d", InitialValue.Proc())
	}
	d := MakeWriter(DMAProc, 9)
	if d.Proc() != DMAProc {
		t.Errorf("DMA proc = %d", d.Proc())
	}
}

func TestShadow(t *testing.T) {
	s := NewShadow()
	if s.Read(0x100) != InitialValue {
		t.Error("unwritten word should read initial value")
	}
	w1 := MakeWriter(0, 0)
	w2 := MakeWriter(1, 0)
	w3 := MakeWriter(0, 1)
	s.Write(0x100, w1, 10)
	s.Write(0x200, w2, 20)
	s.Write(0x104, w3, 30) // same word as 0x100
	if s.Read(0x100) != w3 {
		t.Error("last writer of word 0x100 should be w3 (via 0x104 alias)")
	}
	want := []Version{{0x100, w1, 10}, {0x200, w2, 20}, {0x100, w3, 30}}
	if s.Log.Len() != len(want) {
		t.Fatalf("log = %v", s.Log)
	}
	for i := range want {
		if s.Log.At(i) != want[i] {
			t.Errorf("log[%d] = %+v, want %+v", i, s.Log.At(i), want[i])
		}
	}
}

func TestStreamChunks(t *testing.T) {
	s := NewStream(3)
	for i := 0; i < 3*maxChunk; i++ {
		s.Append(OpStore, 8*uint64(i), uint64(i), MakeWriter(3, uint64(i)))
	}
	if s.Len() != 3*maxChunk {
		t.Fatalf("Len = %d", s.Len())
	}
	for _, i := range []int{0, firstChunk - 1, firstChunk, maxChunk - 1, maxChunk, 3*maxChunk - 1} {
		if got := s.At(i); got.Index != i || got.Value != uint64(i) {
			t.Errorf("At(%d) = %+v", i, got)
		}
	}
	// The first chunk doubled up to maxChunk; every later one holds
	// maxChunk, so the unfilled tail stays below maxChunk.
	if len(s.recs.chunks) != 3 {
		t.Errorf("%d chunks for %d records", len(s.recs.chunks), 3*maxChunk)
	}
	for i, c := range s.recs.chunks {
		if cap(c) != maxChunk {
			t.Errorf("chunk %d: cap %d", i, cap(c))
		}
	}
	// A truncated stream refills its chunks instead of allocating.
	first := &s.recs.chunks[0][0]
	s.Reset(3)
	if n := testing.AllocsPerRun(1, func() {
		s.Reset(3)
		for i := 0; i < 2*maxChunk; i++ {
			s.Append(OpLoad, 8*uint64(i), uint64(i), InitialValue)
		}
	}); n != 0 {
		t.Errorf("refilling a truncated stream allocated %v times", n)
	}
	if &s.recs.chunks[0][0] != first || s.At(2*maxChunk-1).Index != 2*maxChunk-1 {
		t.Error("truncated stream did not reuse its first chunk")
	}
}

// recordRun is a random input for the record round trip: the ops one
// processor's stream records, then the ops it records after a
// truncation hands it to another processor.
type recordRun struct {
	proc, refillProc int
	ops, refill      []Op
}

// Generate implements quick.Generator. Runs reach past three chunk
// boundaries, and the refill is shorter or longer than the first fill.
func (recordRun) Generate(r *rand.Rand, _ int) reflect.Value {
	ops := func(proc int) []Op {
		out := make([]Op, r.Intn(3*maxChunk+firstChunk))
		for i := range out {
			op := Op{Proc: proc, Index: i, Kind: OpKind(r.Intn(2)), Addr: r.Uint64() &^ 7, Value: r.Uint64()}
			w := MakeWriter(r.Intn(16), r.Uint64())
			if r.Intn(4) == 0 {
				w = InitialValue
			}
			if op.Kind == OpStore {
				op.Self = w
			} else {
				op.ReadsFrom = w
			}
			out[i] = op
		}
		return out
	}
	run := recordRun{proc: r.Intn(16), refillProc: r.Intn(16)}
	run.ops, run.refill = ops(run.proc), ops(run.refillProc)
	return reflect.ValueOf(run)
}

// TestStreamRecordRoundTrip requires At to return every appended op,
// with the stream's processor and the op's position, across chunk
// boundaries and after a truncate-and-refill.
func TestStreamRecordRoundTrip(t *testing.T) {
	same := func(s Stream, ops []Op) bool {
		if s.Len() != len(ops) {
			t.Logf("Len = %d, want %d", s.Len(), len(ops))
			return false
		}
		for i, want := range ops {
			if got := s.At(i); got != want {
				t.Logf("At(%d) = %+v, want %+v", i, got, want)
				return false
			}
		}
		return true
	}
	prop := func(run recordRun) bool {
		s := streamOf(run.proc, run.ops)
		if !same(s, run.ops) {
			return false
		}
		s.Reset(run.refillProc)
		for _, op := range run.refill {
			appendOp(&s, op)
		}
		return same(s, run.refill)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// appendOp appends op to s through Append.
func appendOp(s *Stream, op Op) {
	w := op.ReadsFrom
	if op.Kind == OpStore {
		w = op.Self
	}
	s.Append(op.Kind, op.Addr, op.Value, w)
}

// streamOf records ops as processor p's stream. Each op's Proc and
// Index must be p and its position, which is what At returns.
func streamOf(p int, ops []Op) Stream {
	s := NewStream(p)
	for i, op := range ops {
		if op.Proc != p || op.Index != i {
			panic(fmt.Sprintf("op %+v at position %d of processor %d's stream", op, i, p))
		}
		appendOp(&s, op)
	}
	return s
}

// streams records ops[p] as processor p's stream.
func streams(ops ...[]Op) []Stream {
	s := make([]Stream, len(ops))
	for p := range ops {
		s[p] = streamOf(p, ops[p])
	}
	return s
}

// logOf records vs as a version log.
func logOf(vs ...Version) Log {
	var log Log
	for _, v := range vs {
		log.Append(v)
	}
	return log
}

// seqOps builds a trivially SC execution: p0 stores A then B, p1 loads
// B then A reading exactly p0's values in order.
func scExecution() ([]Stream, Log) {
	sA := MakeWriter(0, 0)
	sB := MakeWriter(0, 1)
	p0 := []Op{
		{Proc: 0, Index: 0, Kind: OpStore, Addr: 0x100, Value: 1, Self: sA},
		{Proc: 0, Index: 1, Kind: OpStore, Addr: 0x200, Value: 2, Self: sB},
	}
	p1 := []Op{
		{Proc: 1, Index: 0, Kind: OpLoad, Addr: 0x200, Value: 2, ReadsFrom: sB},
		{Proc: 1, Index: 1, Kind: OpLoad, Addr: 0x100, Value: 1, ReadsFrom: sA},
	}
	log := logOf(Version{0x100, sA, 1}, Version{0x200, sB, 2})
	return streams(p0, p1), log
}

func TestSCExecutionAcyclic(t *testing.T) {
	procs, log := scExecution()
	g := Build(procs, log, nil)
	if op, cyc := g.FindCycle(); cyc {
		t.Errorf("SC execution reported cyclic at %+v (%s)", op, g)
	}
	if g.Nodes() != 4 {
		t.Errorf("Nodes = %d", g.Nodes())
	}
}

func TestFigure1bViolationCyclic(t *testing.T) {
	// Figure 1(b): p1 stores A then B; p2 loads B (new value) then A
	// (old/initial value). Reading new B but old A with the load of B
	// first in program order is a classic SC violation.
	sA := MakeWriter(0, 0)
	sB := MakeWriter(0, 1)
	p0 := []Op{
		{Proc: 0, Index: 0, Kind: OpStore, Addr: 0x100, Value: 1, Self: sA}, // store A
		{Proc: 0, Index: 1, Kind: OpStore, Addr: 0x200, Value: 2, Self: sB}, // store B
	}
	p1 := []Op{
		{Proc: 1, Index: 0, Kind: OpLoad, Addr: 0x200, Value: 2, ReadsFrom: sB},           // load B: new
		{Proc: 1, Index: 1, Kind: OpLoad, Addr: 0x100, Value: 9, ReadsFrom: InitialValue}, // load A: old!
	}
	log := logOf(Version{0x100, sA, 1}, Version{0x200, sB, 2})
	g := Build(streams(p0, p1), log, nil)
	if _, cyc := g.FindCycle(); !cyc {
		t.Errorf("Figure 1(b) violation not detected (%s)", g)
	}
}

func TestFigure4Example(t *testing.T) {
	// Figure 4's shape (Dekker): p0 stores A then reads C; p1 stores C
	// then reads A. Both reading the *original* values cannot be
	// totally ordered — the WAR edges close a cross-processor cycle
	// with program order.
	sA := MakeWriter(0, 0)
	sC := MakeWriter(1, 0)
	p0 := []Op{
		{Proc: 0, Index: 0, Kind: OpStore, Addr: 0xA0, Value: 1, Self: sA},
		{Proc: 0, Index: 1, Kind: OpLoad, Addr: 0xC0, Value: 9, ReadsFrom: InitialValue},
	}
	p1bad := []Op{
		{Proc: 1, Index: 0, Kind: OpStore, Addr: 0xC0, Value: 2, Self: sC},
		{Proc: 1, Index: 1, Kind: OpLoad, Addr: 0xA0, Value: 9, ReadsFrom: InitialValue},
	}
	log := logOf(Version{0xA0, sA, 1}, Version{0xC0, sC, 2})
	g := Build(streams(p0, p1bad), log, nil)
	// sA ->(PO) ldC ->(WAR) sC ->(PO) ldA ->(WAR) sA: cycle.
	if _, cyc := g.FindCycle(); !cyc {
		t.Errorf("Figure 4 violation not detected (%s)", g)
	}
	// The legal interleaving — p1's load reads the NEW A — is acyclic:
	// stA, ldC, stC, ldA is a valid total order.
	p1ok := []Op{
		{Proc: 1, Index: 0, Kind: OpStore, Addr: 0xC0, Value: 2, Self: sC},
		{Proc: 1, Index: 1, Kind: OpLoad, Addr: 0xA0, Value: 1, ReadsFrom: sA},
	}
	g2 := Build(streams(p0, p1ok), log, nil)
	if op, cyc := g2.FindCycle(); cyc {
		t.Errorf("legal execution flagged cyclic at %+v", op)
	}
}

func TestWAWOrderRespected(t *testing.T) {
	// Two stores to one address by different processors; a processor
	// that reads them in anti-chain order violates SC.
	s0 := MakeWriter(0, 0)
	s1 := MakeWriter(1, 0)
	p0 := []Op{{Proc: 0, Index: 0, Kind: OpStore, Addr: 0x80, Value: 1, Self: s0}}
	p1 := []Op{{Proc: 1, Index: 0, Kind: OpStore, Addr: 0x80, Value: 2, Self: s1}}
	p2 := []Op{
		{Proc: 2, Index: 0, Kind: OpLoad, Addr: 0x80, Value: 2, ReadsFrom: s1},
		{Proc: 2, Index: 1, Kind: OpLoad, Addr: 0x80, Value: 1, ReadsFrom: s0},
	}
	log := logOf(Version{0x80, s0, 1}, Version{0x80, s1, 2}) // coherence order: s0 then s1
	g := Build(streams(p0, p1, p2), log, nil)
	if _, cyc := g.FindCycle(); !cyc {
		t.Error("reading versions against coherence order must be cyclic")
	}
	// Reading in order is fine.
	p2ok := []Op{
		{Proc: 2, Index: 0, Kind: OpLoad, Addr: 0x80, Value: 1, ReadsFrom: s0},
		{Proc: 2, Index: 1, Kind: OpLoad, Addr: 0x80, Value: 2, ReadsFrom: s1},
	}
	g2 := Build(streams(p0, p1, p2ok), log, nil)
	if _, cyc := g2.FindCycle(); cyc {
		t.Error("in-order reads flagged cyclic")
	}
}

func TestInitialValueBeforeFirstStore(t *testing.T) {
	// A load of the initial value ordered after observing the first
	// store is a violation (it must precede the store).
	s0 := MakeWriter(0, 0)
	p0 := []Op{{Proc: 0, Index: 0, Kind: OpStore, Addr: 0x40, Value: 1, Self: s0}}
	p1 := []Op{
		{Proc: 1, Index: 0, Kind: OpLoad, Addr: 0x40, Value: 1, ReadsFrom: s0},
		{Proc: 1, Index: 1, Kind: OpLoad, Addr: 0x40, Value: 9, ReadsFrom: InitialValue},
	}
	log := logOf(Version{0x40, s0, 1})
	g := Build(streams(p0, p1), log, nil)
	if _, cyc := g.FindCycle(); !cyc {
		t.Error("stale re-read of initial value must be cyclic")
	}
}

func TestUnknownWriterInChainIsSkipped(t *testing.T) {
	// DMA writers appear in chains but have no graph node; the chain
	// segment must break gracefully.
	s0 := MakeWriter(0, 0)
	dma := MakeWriter(DMAProc, 1)
	p0 := []Op{{Proc: 0, Index: 0, Kind: OpStore, Addr: 0x40, Value: 1, Self: s0}}
	p1 := []Op{{Proc: 1, Index: 0, Kind: OpLoad, Addr: 0x40, Value: 2, ReadsFrom: dma}}
	log := logOf(Version{0x40, s0, 1}, Version{0x40, dma, 2})
	g := Build(streams(p0, p1), log, nil)
	if _, cyc := g.FindCycle(); cyc {
		t.Error("DMA-read execution flagged cyclic")
	}
}

func TestPerLocationCoherence(t *testing.T) {
	// The Figure 1(b) different-address reordering violates SC but not
	// per-location coherence.
	sA := MakeWriter(0, 0)
	sB := MakeWriter(0, 1)
	p0 := []Op{
		{Proc: 0, Index: 0, Kind: OpStore, Addr: 0x100, Value: 1, Self: sA},
		{Proc: 0, Index: 1, Kind: OpStore, Addr: 0x200, Value: 2, Self: sB},
	}
	p1 := []Op{
		{Proc: 1, Index: 0, Kind: OpLoad, Addr: 0x200, Value: 2, ReadsFrom: sB},
		{Proc: 1, Index: 1, Kind: OpLoad, Addr: 0x100, Value: 9, ReadsFrom: InitialValue},
	}
	log := logOf(Version{0x100, sA, 1}, Version{0x200, sB, 2})
	if _, cyc := Build(streams(p0, p1), log, nil).FindCycle(); !cyc {
		t.Fatal("SC check must flag the reordering")
	}
	if _, cyc := BuildPerLocation(streams(p0, p1), log, nil, nil).FindCycle(); cyc {
		t.Error("per-location coherence must accept different-address reordering")
	}
	// But a same-address inversion violates both.
	p1bad := []Op{
		{Proc: 1, Index: 0, Kind: OpLoad, Addr: 0x100, Value: 1, ReadsFrom: sA},
		{Proc: 1, Index: 1, Kind: OpLoad, Addr: 0x100, Value: 9, ReadsFrom: InitialValue},
	}
	if _, cyc := BuildPerLocation(streams(p0, p1bad), log, nil, nil).FindCycle(); !cyc {
		t.Error("per-location check must flag same-address inversion")
	}
}

func TestFindCyclePath(t *testing.T) {
	sA := MakeWriter(0, 0)
	sC := MakeWriter(1, 0)
	p0 := []Op{
		{Proc: 0, Index: 0, Kind: OpStore, Addr: 0xA0, Value: 1, Self: sA},
		{Proc: 0, Index: 1, Kind: OpLoad, Addr: 0xC0, Value: 9, ReadsFrom: InitialValue},
	}
	p1 := []Op{
		{Proc: 1, Index: 0, Kind: OpStore, Addr: 0xC0, Value: 2, Self: sC},
		{Proc: 1, Index: 1, Kind: OpLoad, Addr: 0xA0, Value: 9, ReadsFrom: InitialValue},
	}
	log := logOf(Version{0xA0, sA, 1}, Version{0xC0, sC, 2})
	g := Build(streams(p0, p1), log, nil)
	path := g.FindCyclePath()
	if len(path) < 2 {
		t.Fatalf("cycle path too short: %d", len(path))
	}
	// Every node on the path is one of the four ops.
	for _, op := range path {
		if op.Proc != 0 && op.Proc != 1 {
			t.Errorf("foreign op on path: %+v", op)
		}
	}
	// Acyclic graph yields nil.
	ok := []Op{{Proc: 1, Index: 0, Kind: OpLoad, Addr: 0xA0, Value: 1, ReadsFrom: sA}}
	g2 := Build(streams(p0[:1], ok), log, nil)
	if g2.FindCyclePath() != nil {
		t.Error("acyclic graph returned a cycle path")
	}
}

func TestValueAwareSilentStoreNoFalsePositive(t *testing.T) {
	// A load attributed to an older writer whose value equals the next
	// (silent) version must not be over-constrained: reading "stale"
	// identity with identical value is value-SC.
	s0 := MakeWriter(0, 0) // writes 5
	s1 := MakeWriter(1, 0) // silent: writes 5 again
	p0 := []Op{{Proc: 0, Index: 0, Kind: OpStore, Addr: 0x40, Value: 5, Self: s0}}
	p1 := []Op{{Proc: 1, Index: 0, Kind: OpStore, Addr: 0x40, Value: 5, Self: s1}}
	p2 := []Op{
		// Reads attributed across the silent boundary in "wrong" order.
		{Proc: 2, Index: 0, Kind: OpLoad, Addr: 0x40, Value: 5, ReadsFrom: s1},
		{Proc: 2, Index: 1, Kind: OpLoad, Addr: 0x40, Value: 5, ReadsFrom: s0},
	}
	log := logOf(Version{0x40, s0, 5}, Version{0x40, s1, 5})
	g := Build(streams(p0, p1, p2), log, nil)
	if op, cyc := g.FindCycle(); cyc {
		t.Errorf("silent-store identity inversion flagged as violation at %+v", op)
	}
}
