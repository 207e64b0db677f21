// The SC outcome oracle: enumerate every sequentially consistent
// interleaving of a (small) litmus test to derive the set of outcomes
// SC allows, keeping one witness interleaving per outcome so each
// allowed outcome can be cross-checked against the constraint-graph
// checker (DESIGN.md §8): a witness execution must always produce an
// acyclic graph.

package litmus

import (
	"sort"

	"vbmo/internal/consistency"
)

// AllowedSet is the oracle's result: every SC-reachable outcome keyed
// by Outcome.Key, plus one witness interleaving per outcome (the
// sequence of thread indices that realized it).
type AllowedSet struct {
	Test     *Test
	Outcomes map[string]Outcome
	Witness  map[string][]int
}

// Allowed enumerates all sequentially consistent interleavings of the
// test — each operation atomic, program order preserved, fences inert
// (SC already orders everything) — and returns the allowed-outcome
// set. Litmus tests are tiny (a handful of operations per thread), so
// exhaustive enumeration is cheap: the largest battery member explores
// a few thousand interleavings.
func Allowed(t *Test) *AllowedSet {
	as := &AllowedSet{
		Test:     t,
		Outcomes: make(map[string]Outcome),
		Witness:  make(map[string][]int),
	}
	mem := make([]uint64, t.Locs)
	for i := range mem {
		mem[i] = t.InitVal(Loc(i))
	}
	idx := make([]int, len(t.Threads))
	base := t.loadBase()
	slot := make([]int, len(t.Threads)) // next load slot per thread
	scratch := Outcome{Loads: make([]uint64, t.NumLoads()), Final: mem}
	var order []int

	var rec func()
	rec = func() {
		done := true
		for th := range t.Threads {
			if idx[th] >= len(t.Threads[th]) {
				continue
			}
			done = false
			op := t.Threads[th][idx[th]]
			idx[th]++
			order = append(order, th)
			var savedMem, savedLoad uint64
			switch op.Kind {
			case OpStore:
				savedMem = mem[op.Loc]
				mem[op.Loc] = op.Val
			case OpLoad:
				savedLoad = scratch.Loads[base[th]+slot[th]]
				scratch.Loads[base[th]+slot[th]] = mem[op.Loc]
				slot[th]++
			}
			rec()
			switch op.Kind {
			case OpStore:
				mem[op.Loc] = savedMem
			case OpLoad:
				slot[th]--
				scratch.Loads[base[th]+slot[th]] = savedLoad
			}
			order = order[:len(order)-1]
			idx[th]--
		}
		if done {
			key := scratch.Key()
			if _, ok := as.Outcomes[key]; !ok {
				as.Outcomes[key] = scratch.clone()
				as.Witness[key] = append([]int(nil), order...)
			}
		}
	}
	rec()
	return as
}

// Contains reports whether the outcome is SC-allowed.
func (as *AllowedSet) Contains(o Outcome) bool {
	_, ok := as.Outcomes[o.Key()]
	return ok
}

// Keys returns the allowed outcome keys in sorted order.
func (as *AllowedSet) Keys() []string {
	out := make([]string, 0, len(as.Outcomes))
	for k := range as.Outcomes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WeakAllowed reports whether the test's canonical weak outcome is
// inside the SC-allowed set (it never should be for a well-formed
// test; the battery test asserts this).
func (as *AllowedSet) WeakAllowed() bool {
	if as.Test.Weak == nil {
		return false
	}
	for _, k := range as.Keys() {
		if as.Test.Weak(as.Outcomes[k]) {
			return true
		}
	}
	return false
}

// WitnessGraph replays the witness interleaving for the given allowed
// outcome into the constraint checker's input form and builds the
// graph. The oracle and the checker are independent implementations of
// "is this execution SC", so an acyclic result for every allowed
// outcome is the cross-check that keeps both honest.
func (as *AllowedSet) WitnessGraph(key string) *consistency.Graph {
	return as.witnessGraph(key, nil)
}

// witnessGraph is WitnessGraph with consistency.BuildWith's edge
// observer.
func (as *AllowedSet) witnessGraph(key string, onEdge func(from, to int32, kind consistency.EdgeKind)) *consistency.Graph {
	order, ok := as.Witness[key]
	if !ok {
		return nil
	}
	t := as.Test
	procs := make([]consistency.Stream, len(t.Threads))
	for th := range procs {
		procs[th] = consistency.NewStream(th)
	}
	var log consistency.Log
	writer := make([]consistency.Writer, t.Locs) // current writer per loc
	mem := make([]uint64, t.Locs)
	for i := range mem {
		mem[i] = t.InitVal(Loc(i))
	}
	idx := make([]int, len(t.Threads))
	seq := make([]uint64, len(t.Threads)) // per-proc store sequence
	for _, th := range order {
		op := t.Threads[th][idx[th]]
		idx[th]++
		addr := LocAddr(Loc(op.Loc))
		switch op.Kind {
		case OpStore:
			seq[th]++
			w := consistency.MakeWriter(th, seq[th])
			writer[op.Loc] = w
			mem[op.Loc] = op.Val
			log.Append(consistency.Version{Addr: addr, W: w, Value: op.Val})
			procs[th].Append(consistency.OpStore, addr, op.Val, w)
		case OpLoad:
			procs[th].Append(consistency.OpLoad, addr, mem[op.Loc], writer[op.Loc])
		}
	}
	return consistency.BuildWith(procs, log, as.background(), onEdge)
}

// background returns the checker background function for this test:
// tested locations read their declared initial values, everything else
// reads zero (no other address appears in witness executions).
func (as *AllowedSet) background() func(addr uint64) uint64 {
	t := as.Test
	return func(addr uint64) uint64 {
		for loc := 0; loc < t.Locs; loc++ {
			if LocAddr(Loc(loc)) == addr&^7 {
				return t.InitVal(Loc(loc))
			}
		}
		return 0
	}
}
