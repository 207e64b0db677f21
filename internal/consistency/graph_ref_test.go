package consistency

import "sort"

// This file keeps the map-based constraint-graph builder the flat one
// replaced, as the reference the differential test compares against.
// Its input is the old form: per-processor op slices and a per-word
// version-chain map.

// refVersion is one entry of a word's version chain.
type refVersion struct {
	W     Writer
	Value uint64
}

// refGraph is the reference builder's graph: adjacency lists grown by
// append, and store nodes found through a writer map.
type refGraph struct {
	ops       []Op
	adj       [][]int32
	nodes     map[Writer]int32
	EdgeCount int
}

// refBuildWith is the reference for BuildWith.
func refBuildWith(procs [][]Op, chains map[uint64][]refVersion, background func(addr uint64) uint64, onEdge func(from, to int32, kind EdgeKind)) *refGraph {
	g := &refGraph{nodes: make(map[Writer]int32)}
	for _, stream := range procs {
		g.ops = append(g.ops, stream...)
	}
	g.adj = make([][]int32, len(g.ops))
	for i, op := range g.ops {
		if op.Kind == OpStore {
			g.nodes[op.Self] = int32(i)
		}
	}
	add := func(from, to int32, kind EdgeKind) {
		if from == to {
			return
		}
		g.adj[from] = append(g.adj[from], to)
		g.EdgeCount++
		if onEdge != nil {
			onEdge(from, to, kind)
		}
	}
	base := 0
	for _, stream := range procs {
		for i := 1; i < len(stream); i++ {
			add(int32(base+i-1), int32(base+i), EdgePO)
		}
		base += len(stream)
	}

	type key struct {
		addr uint64
		w    Writer
	}
	readers := make(map[key][]int32)
	for i, op := range g.ops {
		if op.Kind == OpLoad {
			readers[key{op.Addr, op.ReadsFrom}] = append(readers[key{op.Addr, op.ReadsFrom}], int32(i))
		}
	}

	addrs := make([]uint64, 0, len(chains))
	for addr := range chains {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		chain := chains[addr]
		pos := make(map[Writer]int, len(chain))
		for i, v := range chain {
			pos[v.W] = i
		}
		bg := uint64(0)
		if background != nil {
			bg = background(addr)
		}
		prev := int32(-1)
		prevValid := false
		for _, v := range chain {
			node, ok := g.nodes[v.W]
			if !ok {
				prevValid = false
				continue
			}
			if prevValid {
				add(prev, node, EdgeWAW)
			}
			prev, prevValid = node, true
		}
		attach := func(loads []int32, k int) {
			for _, ld := range loads {
				x := g.ops[ld].Value
				e := k
				for e >= 0 && chain[e].Value == x {
					e--
				}
				runStart := e + 1
				if runStart <= k {
					if !(runStart == 0 && bg == x) {
						if n, ok := g.nodes[chain[runStart].W]; ok {
							add(n, ld, EdgeRAW)
						}
					}
				}
				j := k + 1
				for j < len(chain) && chain[j].Value == x {
					j++
				}
				if j < len(chain) {
					if n, ok := g.nodes[chain[j].W]; ok {
						add(ld, n, EdgeWAR)
					}
				}
			}
		}
		attach(readers[key{addr, InitialValue}], -1)
		for k, v := range chain {
			if pos[v.W] == k {
				attach(readers[key{addr, v.W}], k)
			}
		}
	}
	return g
}

// FindCycle is the reference for Graph.FindCycle.
func (g *refGraph) FindCycle() (Op, bool) {
	path := g.FindCyclePath()
	if path == nil {
		return Op{}, false
	}
	return path[0], true
}

// FindCyclePath is the reference for Graph.FindCyclePath. The cycle's
// first op is the gray node the DFS closed on, which is the op
// FindCycle reports.
func (g *refGraph) FindCyclePath() []Op {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(g.ops))
	type frame struct {
		node int32
		next int
	}
	for start := range g.ops {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: int32(start)}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.adj[f.node]) {
				to := g.adj[f.node][f.next]
				f.next++
				switch color[to] {
				case gray:
					var cyc []Op
					for i := range stack {
						if stack[i].node == to {
							for _, fr := range stack[i:] {
								cyc = append(cyc, g.ops[fr.node])
							}
							return cyc
						}
					}
					return []Op{g.ops[to]}
				case white:
					color[to] = gray
					stack = append(stack, frame{node: to})
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// refBuildPerLocation is the reference for BuildPerLocation.
func refBuildPerLocation(procs [][]Op, chains map[uint64][]refVersion, background func(addr uint64) uint64, onEdge func(from, to int32, kind EdgeKind)) *refGraph {
	type key struct {
		proc int
		addr uint64
	}
	split := make(map[key][]Op)
	var order []key
	for p, stream := range procs {
		for _, op := range stream {
			k := key{p, op.Addr}
			if _, ok := split[k]; !ok {
				order = append(order, k)
			}
			op.Index = len(split[k])
			split[k] = append(split[k], op)
		}
	}
	streams := make([][]Op, 0, len(order))
	for _, k := range order {
		streams = append(streams, split[k])
	}
	return refBuildWith(streams, chains, background, onEdge)
}
