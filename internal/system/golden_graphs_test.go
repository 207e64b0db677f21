package system

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/consistency"
	"vbmo/internal/trace"
)

// goldenGraph pins one constraint graph: its size, a SHA-256 of its
// graph-edge stream as (from, to, kind) triples in insertion order, the
// op FindCycle reports and the cycle FindCyclePath returns ("" when
// the graph is acyclic). Edge order decides the last two, so a checker
// that inserts the same edges in another order fails here even when
// its verdict holds.
type goldenGraph struct {
	name   string
	nodes  int
	edges  int
	digest string
	cycle  string
	path   string
}

// goldenGraphs pins the checker on the machine: verify16's CheckSC
// shape, whose DMA writers break WAW runs; the per-location checker on
// the same run; and vbrsim's default unsound run, cyclic with a 14-op
// cycle. A deliberate checker change regenerates an entry from the
// failure message, which prints the replacement line.
var goldenGraphs = []goldenGraph{
	{"sc no-recent-snoop/jbb-mp/16 n=2000 seed=3", 12760, 15534, "12200f23c443d5418e0b33d7c5e779815e3d135e4d6f603e57d533d4b3b529d9", "", ""},
	{"coherence no-recent-snoop/jbb-mp/16 n=2000 seed=3", 12760, 10275, "467962dc8d3f5ce8ec8890c6db7f4ed90995c2022f1671a6bcfbe90a47a10ae1", "", ""},
	{"sc nus-only/jbb-mp/16 n=5000 seed=42", 33795, 44392, "2cad4d707fea6a9876c63ca1718f841f4be85fa0229b86a409247b164baa3237", "{Proc:12 Index:416 Kind:1 Addr:1099511628824 Value:12973166846635371169 Self:3659174697238655 ReadsFrom:0}", "14 ops 67148d49268702a6"},
	{"coherence nus-only/jbb-mp/16 n=5000 seed=42", 33795, 31432, "5fbeed9d862f017cc0aeb6930a5e7b3dbff2672100954fab07c49436b5dd5c32", "", ""},
}

// edgeHash is a trace sink that hashes the graph-edge stream.
type edgeHash struct{ h hash.Hash }

func (e *edgeHash) Emit(ev trace.Event) {
	if ev.Kind == trace.KGraphEdge {
		fmt.Fprintf(e.h, "%d %d %d\n", ev.Tag, ev.Aux, ev.Reason)
	}
}

func (e *edgeHash) Flush() error { return nil }

// pinGraph renders a checked graph as its goldenGraph entry.
func pinGraph(name string, g *consistency.Graph, edges *edgeHash) goldenGraph {
	got := goldenGraph{name: name, nodes: g.Nodes(), edges: g.EdgeCount,
		digest: hex.EncodeToString(edges.h.Sum(nil))}
	if op, cyc := g.FindCycle(); cyc {
		got.cycle = fmt.Sprintf("%+v", op)
		path := g.FindCyclePath()
		h := sha256.New()
		for _, op := range path {
			fmt.Fprintf(h, "%+v\n", op)
		}
		got.path = fmt.Sprintf("%d ops %x", len(path), h.Sum(nil)[:8])
	}
	return got
}

// TestGoldenGraphs runs each pinned machine run, checks it with the
// edge tracer attached, and compares the graph with its entry.
func TestGoldenGraphs(t *testing.T) {
	pinned := map[string]goldenGraph{}
	for _, g := range goldenGraphs {
		pinned[g.name] = g
	}
	runs := []struct {
		machine string
		work    string
		insts   uint64
		seed    uint64
	}{
		{"no-recent-snoop", "jbb-mp", 2000, 3},
		{"nus-only", "jbb-mp", 5000, 42},
	}
	for _, r := range runs {
		cfg, ok := config.ByName(r.machine)
		if !ok {
			t.Fatalf("unknown machine %s", r.machine)
		}
		opt := Options{Cores: 16, Seed: r.seed, DMAInterval: 4000, DMABurst: 2, TrackConsistency: true}
		s := New(cfg, mustWork(t, r.work), opt)
		s.Run(r.insts, opt)
		checks := []struct {
			name  string
			check func() (consistency.Op, bool, *consistency.Graph)
		}{
			{"sc", s.CheckSC},
			{"coherence", s.CheckCoherence},
		}
		for _, c := range checks {
			name := fmt.Sprintf("%s %s/%s/16 n=%d seed=%d", c.name, r.machine, r.work, r.insts, r.seed)
			edges := &edgeHash{h: sha256.New()}
			// Attached after the run, so only the checker emits.
			s.Trace = trace.New(edges)
			_, _, g := c.check()
			s.Trace = nil
			got := pinGraph(name, g, edges)
			if want := pinned[name]; want != got {
				t.Errorf("%s: got %+v\npinned %+v\nreplacement line:\n\t{%q, %d, %d, %q, %q, %q},",
					name, got, want, got.name, got.nodes, got.edges, got.digest, got.cycle, got.path)
			}
		}
	}
}
