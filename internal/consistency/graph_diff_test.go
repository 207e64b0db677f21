package consistency

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// wordBase is the first word address of generated executions.
const wordBase = 0x1000

// execution is a random input within the producers' contract: each
// proc's stores carry consecutive writers, a writer appears in the log
// at most once, and a load reads a writer of its own word. Within
// that, it covers what the machine produces: silent-store runs
// (values come from a three-value domain), loads of the initial value
// against a background that may or may not match them, DMA writers in
// the chains, stores missing from the chains, and procs whose store
// sequence starts above 0 because writes before a ResetStats left
// versions without ops.
type execution struct {
	procs [][]Op
	cuts  []int // procs[p] is recorded as two chunks, cut before procs[p][cuts[p]]
	log   []Version
	bg    []uint64 // initial value per word
}

// Generate implements quick.Generator.
func (execution) Generate(r *rand.Rand, _ int) reflect.Value {
	nprocs, words := 2+r.Intn(3), 1+r.Intn(3)
	e := execution{procs: make([][]Op, nprocs), cuts: make([]int, nprocs), bg: make([]uint64, words)}
	for d := range e.bg {
		e.bg[d] = uint64(r.Intn(3))
	}
	word := func() uint64 { return wordBase + 8*uint64(r.Intn(words)) }
	seq := make([]uint64, nprocs)
	for p := range seq {
		if r.Intn(3) == 0 {
			// Writes before a ResetStats: in the log, not in the streams.
			for n := r.Intn(3); n > 0; n-- {
				e.log = append(e.log, Version{word(), MakeWriter(p, seq[p]), uint64(r.Intn(3))})
				seq[p]++
			}
			seq[p] += uint64(r.Intn(2))
		}
	}
	// versions[addr] lists the writers a load of addr may name: every
	// logged version, and stores left out of the log.
	versions := map[uint64][]Version{}
	for _, v := range e.log {
		versions[v.Addr] = append(versions[v.Addr], v)
	}
	left := make([]int, nprocs)
	total := 0
	for p := range left {
		left[p] = 1 + r.Intn(8)
		total += left[p]
	}
	dma := uint64(0)
	for ; total > 0; total-- {
		p := r.Intn(nprocs)
		for left[p] == 0 {
			p = (p + 1) % nprocs
		}
		left[p]--
		if r.Intn(6) == 0 {
			dma++
			v := Version{word(), MakeWriter(DMAProc, dma), uint64(r.Intn(3))}
			e.log = append(e.log, v)
			versions[v.Addr] = append(versions[v.Addr], v)
		}
		op := Op{Proc: p, Index: len(e.procs[p]), Addr: word()}
		if r.Intn(2) == 0 {
			op.Kind, op.Self, op.Value = OpStore, MakeWriter(p, seq[p]), uint64(r.Intn(3))
			seq[p]++
			v := Version{op.Addr, op.Self, op.Value}
			if r.Intn(8) != 0 {
				e.log = append(e.log, v)
			}
			versions[v.Addr] = append(versions[v.Addr], v)
		} else {
			op.Kind = OpLoad
			vs := versions[op.Addr]
			if n := len(vs); n > 0 && r.Intn(4) != 0 {
				v := vs[r.Intn(n)]
				op.ReadsFrom, op.Value = v.W, v.Value
			} else {
				op.Value = e.bg[(op.Addr-wordBase)/8]
			}
			if r.Intn(5) == 0 {
				op.Value = uint64(r.Intn(3))
			}
		}
		e.procs[p] = append(e.procs[p], op)
	}
	for p, ops := range e.procs {
		e.cuts[p] = r.Intn(len(ops) + 1)
	}
	return reflect.ValueOf(e)
}

// streams returns the procs as two-chunk streams: At allows a first
// chunk of any length, which BuildPerLocation's split streams have.
func (e execution) streams() []Stream {
	s := streams(e.procs...)
	for p := range s {
		c := s[p].recs.chunks[0]
		s[p].recs.chunks = [][]record{c[:e.cuts[p]], c[e.cuts[p]:]}
	}
	return s
}

// chains returns the log in the reference builder's form.
func (e execution) chains() map[uint64][]refVersion {
	c := map[uint64][]refVersion{}
	for _, v := range e.log {
		c[v.Addr] = append(c[v.Addr], refVersion{v.W, v.Value})
	}
	return c
}

func (e execution) background(addr uint64) uint64 { return e.bg[(addr-wordBase)/8] }

// tracedEdge is one observed edge insertion.
type tracedEdge struct {
	from, to int32
	kind     EdgeKind
}

// verdict is everything a builder's graph exposes: the edge stream,
// the counts, and both cycle reports.
type verdict struct {
	edges        []tracedEdge
	nodes        int
	edgeCount    int
	cycleOp      Op
	cyclic       bool
	cyclePath    []Op
	atMatchesOps bool
}

// diff compares the flat builder with the reference on e and returns
// a description of the first difference, or "".
func (e execution) diff(perLocation bool) string {
	var got, want verdict
	observe := func(v *verdict) func(from, to int32, kind EdgeKind) {
		return func(from, to int32, kind EdgeKind) { v.edges = append(v.edges, tracedEdge{from, to, kind}) }
	}
	var g *Graph
	var r *refGraph
	if perLocation {
		g = BuildPerLocation(e.streams(), logOf(e.log...), e.background, observe(&got))
		r = refBuildPerLocation(e.procs, e.chains(), e.background, observe(&want))
	} else {
		g = BuildWith(e.streams(), logOf(e.log...), e.background, observe(&got))
		r = refBuildWith(e.procs, e.chains(), e.background, observe(&want))
	}
	got.nodes, got.edgeCount = g.Nodes(), g.EdgeCount
	got.cycleOp, got.cyclic = g.FindCycle()
	got.cyclePath = g.FindCyclePath()
	want.nodes, want.edgeCount = len(r.ops), r.EdgeCount
	want.cycleOp, want.cyclic = r.FindCycle()
	want.cyclePath = r.FindCyclePath()
	got.atMatchesOps, want.atMatchesOps = true, true
	for i, op := range r.ops {
		if i < g.Nodes() && g.At(int32(i)) != op {
			got.atMatchesOps = false
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("flat %+v\nreference %+v", got, want)
	}
	return ""
}

// TestBuildMatchesReference requires the flat builders to produce the
// reference builders' edge streams, node numbering and cycle reports
// on random executions.
func TestBuildMatchesReference(t *testing.T) {
	cyclic := 0
	prop := func(e execution) bool {
		for _, perLocation := range []bool{false, true} {
			if d := e.diff(perLocation); d != "" {
				t.Logf("perLocation=%t on %+v:\n%s", perLocation, e, d)
				return false
			}
		}
		if _, cyc := Build(e.streams(), logOf(e.log...), e.background).FindCycle(); cyc {
			cyclic++
		}
		return true
	}
	const runs = 5000
	if err := quick.Check(prop, &quick.Config{MaxCount: runs, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	// The property says nothing unless both verdicts are common.
	if cyclic < runs/10 || cyclic > runs*9/10 {
		t.Errorf("%d of %d executions cyclic", cyclic, runs)
	}
	t.Logf("%d of %d executions cyclic", cyclic, runs)
}
