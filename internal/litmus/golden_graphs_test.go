package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"vbmo/internal/consistency"
	"vbmo/internal/system"
)

// goldenGraph pins constraint graphs: their summed size, a SHA-256 of
// their edge streams as (from, to, kind) triples in insertion order,
// and, for a cyclic graph, the op FindCycle reports and the cycle
// FindCyclePath returns. Edge order decides the last two, so a checker
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

// goldenGraphs pins every battery test's witness graphs, one entry per
// test over its allowed outcomes in key order, and the first cyclic
// SB run on nus-only from CellSeed(1, …), which the run's litmus
// background decides. A deliberate checker change regenerates an entry
// from the failure message, which prints the replacement line.
var goldenGraphs = []goldenGraph{
	{"witness SB", 12, 12, "c12aaf936e5811103ebb065b8d68d6e6d0dd83318500abdf3d511156a77ba99a", "", ""},
	{"witness SB+fences", 12, 12, "c12aaf936e5811103ebb065b8d68d6e6d0dd83318500abdf3d511156a77ba99a", "", ""},
	{"witness MP", 12, 12, "f3da8d78b3b5963631dce268f97eaa4a5c9f590a65342cbe9ade75173dbd7335", "", ""},
	{"witness MP+fences", 12, 12, "f3da8d78b3b5963631dce268f97eaa4a5c9f590a65342cbe9ade75173dbd7335", "", ""},
	{"witness LB", 12, 12, "376e5b2e7921f1926085aa3c43486ae8886c8816f6dc4e0b3ec28cae6e7c88dd", "", ""},
	{"witness LB+fences", 12, 12, "376e5b2e7921f1926085aa3c43486ae8886c8816f6dc4e0b3ec28cae6e7c88dd", "", ""},
	{"witness S", 12, 12, "744e967bc91e14632bde4bffdf531b05976da8b642601caff22eb1a56dca7a4f", "", ""},
	{"witness R", 12, 12, "edd36af8ed0774d3b4abe97f5d45b6c64179e92dca4a6ede5868be9c62d0aa8f", "", ""},
	{"witness 2+2W", 12, 12, "1991371b0b060cc87b2e3c6b45892f739ce4f2e3001cd2dd0765f401e77a7c05", "", ""},
	{"witness WRC", 35, 35, "c0efb69c09bbf0631b05ba9008fb9587ab8745dd44cedd3a634e2b2bf6084d45", "", ""},
	{"witness IRIW", 90, 90, "cf3bf45058b24eb3ce50faf9a8a35383b294478bb63471510dfddffeb1d94fc2", "", ""},
	{"witness CoRR", 9, 9, "426f105b7c7b031472f110aad1268fa5c77e618c1b6d765bde7f1c786b35995b", "", ""},
	{"witness CoWW", 24, 34, "047ca1c3946a2e9704d45fd62bee06d37ac010ee21a76aa42c7b0795e8556aae", "", ""},
	{"run SB/nus-only seed=21474836484", 4, 4, "34a0dbc92edd9d64cf05b06ee1d4bd637b83064e81a3c3fec2d2ce7f522b5fe3", "{Proc:0 Index:0 Kind:1 Addr:1099511627776 Value:1 Self:281474976710656 ReadsFrom:0}", "4 ops c32e418eab18613a"},
}

// graphPin accumulates graphs into one goldenGraph entry.
type graphPin struct {
	got goldenGraph
	h   hash.Hash
}

func newGraphPin(name string) *graphPin {
	return &graphPin{got: goldenGraph{name: name}, h: sha256.New()}
}

func (p *graphPin) onEdge(from, to int32, kind consistency.EdgeKind) {
	fmt.Fprintf(p.h, "%d %d %d\n", from, to, kind)
}

// add folds a graph built with p.onEdge into the entry.
func (p *graphPin) add(g *consistency.Graph) {
	p.got.nodes += g.Nodes()
	p.got.edges += g.EdgeCount
	fmt.Fprintf(p.h, "--\n")
	if op, cyc := g.FindCycle(); cyc {
		p.got.cycle = fmt.Sprintf("%+v", op)
		path := g.FindCyclePath()
		h := sha256.New()
		for _, op := range path {
			fmt.Fprintf(h, "%+v\n", op)
		}
		p.got.path = fmt.Sprintf("%d ops %x", len(path), h.Sum(nil)[:8])
	}
}

func (p *graphPin) entry() goldenGraph {
	p.got.digest = hex.EncodeToString(p.h.Sum(nil))
	return p.got
}

// TestGoldenGraphs rebuilds every pinned graph with an edge observer
// and compares it with its entry.
func TestGoldenGraphs(t *testing.T) {
	var got []goldenGraph
	battery := Battery()
	for _, test := range battery {
		as := Allowed(test)
		pin := newGraphPin("witness " + test.Name)
		for _, key := range as.Keys() {
			pin.add(as.witnessGraph(key, pin.onEdge))
		}
		got = append(got, pin.entry())
	}

	cfg, _ := ConfigByName("nus-only")
	sb, ti := battery[0], 0
	ci := len(Configs()) - 1
	if sb.Name != "SB" || Configs()[ci].Name != cfg.Name {
		t.Fatal("battery or config order moved: SB and nus-only are pinned by index")
	}
	as := Allowed(sb)
	base := CellSeed(1, ti, ci)
	var res RunResult
	var sys *system.System
	for i := 0; i < goldenRuns && !res.Cycle; i++ {
		res, sys = runOn(sys, cfg.Machine, sb, as, base+uint64(i), nil, nil, 0)
		if res.Cycle {
			pin := newGraphPin(fmt.Sprintf("run SB/nus-only seed=%d", base+uint64(i)))
			pin.add(runGraph(sys, as, CompileOn(sb, nil, 0).Addrs, pin.onEdge))
			got = append(got, pin.entry())
		}
	}
	if !res.Cycle {
		t.Fatalf("no cyclic SB/nus-only run in %d", goldenRuns)
	}

	if len(got) != len(goldenGraphs) {
		t.Errorf("%d graphs, %d pinned", len(got), len(goldenGraphs))
	}
	for i, g := range got {
		if i >= len(goldenGraphs) || goldenGraphs[i] != g {
			t.Errorf("%s: got %+v\nreplacement line:\n\t{%q, %d, %d, %q, %q, %q},",
				g.name, g, g.name, g.nodes, g.edges, g.digest, g.cycle, g.path)
		}
	}
}
