package consistency

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// OpKind distinguishes loads from stores.
type OpKind int

const (
	// OpLoad is a committed load.
	OpLoad OpKind = iota
	// OpStore is a committed store.
	OpStore
)

// Op is one committed memory operation.
type Op struct {
	// Proc is the committing processor.
	Proc int
	// Index is the operation's position among Proc's committed memory
	// operations (its loads and stores, in commit order); the
	// processor's other committed instructions are not counted.
	Index int
	// Kind distinguishes loads from stores.
	Kind OpKind
	// Addr is the word-aligned address accessed.
	Addr uint64
	// Value is the value read (loads) or written (stores).
	Value uint64
	// Self identifies this op when it is a store.
	Self Writer
	// ReadsFrom identifies the store a load observed (InitialValue for
	// background memory).
	ReadsFrom Writer
}

// Graph is the constraint graph: one node per operation, directed edges
// for program order, RAW (store → its readers), WAW (store version
// order), and WAR (reader → next version).
//
// The dependence edges are *value-aware*: a load that read value x is
// constrained only by version transitions that change the value. A run
// of stores all writing x (silent stores — Lepak & Lipasti's store
// value locality) leaves the load free to order anywhere within the
// run. This makes the checker verify value sequential consistency,
// which is exactly the guarantee value-based replay provides: the paper
// §2.1 observes that address-identity-based orderings are conservative
// precisely because of silent stores and false sharing.
type Graph struct {
	procs []Stream
	// base[p] is the node of procs[p]'s first op; base[len(procs)] is
	// the node count.
	base []int32
	// off and adj are the adjacency in CSR form: node n's successors
	// are adj[off[n]:off[n+1]], in edge insertion order.
	off []int32
	adj []int32
	// EdgeCount is the total number of edges.
	EdgeCount int
}

// EdgeKind labels a constraint-graph edge with the dependence order it
// encodes (used by the edge-insertion trace).
type EdgeKind int

const (
	// EdgePO is a program-order edge.
	EdgePO EdgeKind = iota
	// EdgeRAW is a reads-from edge (value transition → load).
	EdgeRAW
	// EdgeWAW is a store version-order edge.
	EdgeWAW
	// EdgeWAR is a load → next value transition edge.
	EdgeWAR
)

// Build constructs the constraint graph from per-processor committed
// operation streams, the version log (every write in write order, as
// Shadow.Log holds it), and the background content function for
// never-written words.
//
// The log and the streams keep to the producers' contract: a writer
// appears in the log at most once, and its store, if recorded, is the
// stream op whose Self it is. A writer with no op in the streams (DMA,
// or a store committed before the streams were cleared) orders
// nothing: the WAW run through it breaks, and it is no RAW source or
// WAR target. A load whose writer is not in the log at its address is
// attached to no version.
func Build(procs []Stream, log Log, background func(addr uint64) uint64) *Graph {
	return BuildWith(procs, log, background, nil)
}

// BuildWith is Build with an edge-insertion observer: onEdge (when
// non-nil) is invoked once per edge with its endpoints (node indices
// into the concatenated streams, resolvable via At) and dependence
// order — the evidence stream that makes a cycle verdict auditable.
//
// Nodes are numbered stream by stream. Edges are inserted in this
// order, which decides both the observer's stream and the op
// FindCycle reports: program order, stream by stream; then, for each
// word in ascending address order, WAW along its version chain, then
// the readers of its initial value, then the readers of each version
// in chain order, each group in node order, with each load's RAW edge
// before its WAR edge. Self-loops are dropped and not counted.
func BuildWith(procs []Stream, log Log, background func(addr uint64) uint64, onEdge func(from, to int32, kind EdgeKind)) *Graph {
	g := &Graph{procs: procs, base: make([]int32, len(procs)+1)}
	for p, s := range procs {
		g.base[p+1] = g.base[p] + int32(s.Len())
	}
	b := builder{onEdge: onEdge}
	b.writers.index(log)
	loads, initial := 0, 0
	g.forEach(func(node int32, r *record) {
		if r.kind() == OpStore {
			if w := b.writers.find(r.w); w != nil {
				w.node = node
			}
			return
		}
		loads++
		if r.w == InitialValue {
			initial++
		}
	})
	b.chains(log, background)
	b.groupReaders(g, loads, initial)

	// Program-order edges come first and link each stream's consecutive
	// ops, so the CSR fill takes them from the streams; the flat list
	// holds the dependence edges.
	if onEdge != nil {
		for p := range procs {
			for n := g.base[p] + 1; n < g.base[p+1]; n++ {
				onEdge(n-1, n, EdgePO)
			}
		}
	}
	// At most one WAW edge per version after its word's first, and one
	// RAW and one WAR edge per reader.
	b.edges = make([]edge, 0, len(b.chain)-2*len(b.addrs)+2*len(b.readers))
	for d := 0; d+1 < len(b.start); d++ {
		b.word(b.start[d], b.start[d+1])
	}
	g.csr(b.edges)
	return g
}

// edge is one constraint-graph edge.
type edge struct{ from, to int32 }

// version is one slot of the builder's chain table: a version's value
// and its store's node (-1 when the writer has no op in the streams),
// or, in the slot that leads each word's chain, the word's initial
// value. word is the word's index in ascending address order.
type version struct {
	value uint64
	node  int32
	word  int32
}

// reader is a load attached to a chain slot.
type reader struct {
	value uint64
	node  int32
}

// builder holds BuildWith's dense tables.
type builder struct {
	writers writerTable
	// chain holds every word's version chain, words in ascending
	// address order: word d's chain is chain[start[d]+1:start[d+1]],
	// led by its initial-value slot chain[start[d]]. addrs[d] is its
	// address.
	chain []version
	start []int32
	addrs []uint64
	// The readers of chain slot k are readers[first[k]:first[k+1]], in
	// node order.
	readers []reader
	first   []int32
	edges   []edge
	onEdge  func(from, to int32, kind EdgeKind)
}

// chains builds the chain table. A word's chain is the log filtered to
// the word, in order, so sorting the log by (address, position) lays
// out every chain at once.
func (b *builder) chains(log Log, background func(addr uint64) uint64) {
	sorted := make([]addrEntry, 0, log.Len())
	for _, c := range log.chunks {
		for _, v := range c {
			sorted = append(sorted, addrEntry{v.Addr, int32(len(sorted))})
		}
	}
	sorted = sortByAddr(sorted)
	words := 0
	for i := range sorted {
		if i == 0 || sorted[i].addr != sorted[i-1].addr {
			words++
		}
	}
	b.chain = make([]version, 0, len(sorted)+words)
	b.start = make([]int32, 0, words+1)
	b.addrs = make([]uint64, 0, words)
	for i, e := range sorted {
		if i == 0 || e.addr != sorted[i-1].addr {
			bg := uint64(0)
			if background != nil {
				bg = background(e.addr)
			}
			b.start = append(b.start, int32(len(b.chain)))
			b.addrs = append(b.addrs, e.addr)
			b.chain = append(b.chain, version{value: bg, node: -1, word: int32(len(b.addrs) - 1)})
		}
		v := log.At(int(e.i))
		node := int32(-1)
		if w := b.writers.find(v.W); w != nil {
			// A writer listed twice attaches its readers at its last
			// version.
			w.slot = int32(len(b.chain))
			node = w.node
		}
		b.chain = append(b.chain, version{value: v.Value, node: node, word: int32(len(b.addrs) - 1)})
	}
	b.start = append(b.start, int32(len(b.chain)))
}

// addrEntry is an index (a log position, or a load's ordinal) keyed by
// an address.
type addrEntry struct {
	addr uint64
	i    int32
}

// radixBits is the widest digit sortByAddr sorts by in one pass.
const radixBits = 11

// sortByAddr sorts entries by address, keeping entries with equal
// addresses in their order: an LSD radix sort over the address bits
// that differ between entries. Digits are narrower for short inputs, so
// a pass costs O(len(es)) even for a litmus run's handful of entries.
// It may return the scratch buffer it sorted into rather than es.
func sortByAddr(es []addrEntry) []addrEntry {
	var differ uint64
	for _, e := range es {
		differ |= e.addr ^ es[0].addr
	}
	if differ == 0 {
		return es
	}
	width := min(radixBits, bits.Len(uint(len(es))))
	mask := uint64(1)<<width - 1
	tmp := make([]addrEntry, len(es))
	at := make([]int32, mask+1)
	for shift := bits.TrailingZeros64(differ); shift < bits.Len64(differ); shift += width {
		clear(at)
		for _, e := range es {
			at[e.addr>>shift&mask]++
		}
		sum := int32(0)
		for d, n := range at {
			at[d] = sum
			sum += n
		}
		for _, e := range es {
			d := e.addr >> shift & mask
			tmp[at[d]] = e
			at[d]++
		}
		es, tmp = tmp, es
	}
	return es
}

// groupReaders attaches each of the graph's loads to its chain slot
// (the writer's version, or the word's initial-value slot) with a
// stable counting sort over the slots, so each slot's readers stay in
// node order.
func (b *builder) groupReaders(g *Graph, loads, initial int) {
	// slots[i] is the i-th load's slot, or -1 when it attaches to none.
	// A load of the initial value finds its word by merging the loads'
	// sorted addresses with the chain table's.
	slots := make([]int32, 0, loads)
	inits := make([]addrEntry, 0, initial)
	g.forEach(func(_ int32, r *record) {
		if r.kind() != OpLoad {
			return
		}
		k := int32(-1)
		if r.w == InitialValue {
			inits = append(inits, addrEntry{r.addr(), int32(len(slots))})
		} else if w := b.writers.find(r.w); w != nil && w.slot >= 0 && b.addrs[b.chain[w.slot].word] == r.addr() {
			k = w.slot
		}
		slots = append(slots, k)
	})
	d := 0
	for _, e := range sortByAddr(inits) {
		for d < len(b.addrs) && b.addrs[d] < e.addr {
			d++
		}
		if d < len(b.addrs) && b.addrs[d] == e.addr {
			slots[e.i] = b.start[d]
		}
	}
	b.first = make([]int32, len(b.chain)+1)
	for _, k := range slots {
		if k >= 0 {
			b.first[k+1]++
		}
	}
	for k := 1; k < len(b.first); k++ {
		b.first[k] += b.first[k-1]
	}
	b.readers = make([]reader, b.first[len(b.chain)])
	i := 0
	g.forEach(func(node int32, r *record) {
		if r.kind() != OpLoad {
			return
		}
		if k := slots[i]; k >= 0 {
			b.readers[b.first[k]] = reader{value: r.value, node: node}
			b.first[k]++
		}
		i++
	})
	unshift(b.first)
}

// word adds the edges of the word whose chain slots are chain[s:e].
//
// RAW and WAR are value-aware. A load of value x attached at slot k
// must follow the version transition that established x: the first
// store of the maximal run of x-valued versions containing k, with no
// edge when the run reaches back through the initial value. It must
// precede the first later version whose value differs from x.
func (b *builder) word(s, e int32) {
	// WAW: the coherence (commit) order of stores is real machine
	// order, so it is kept strict.
	prev := int32(-1)
	for k := s + 1; k < e; k++ {
		node := b.chain[k].node
		if node >= 0 && prev >= 0 {
			b.add(prev, node, EdgeWAW)
		}
		prev = node
	}
	for k := s; k < e; k++ {
		for _, r := range b.readers[b.first[k]:b.first[k+1]] {
			// The run of x-valued slots ending at k starts after j; j
			// falls below s when it takes in the initial value.
			j := k
			for j >= s && b.chain[j].value == r.value {
				j--
			}
			if j >= s && j < k {
				if n := b.chain[j+1].node; n >= 0 {
					b.add(n, r.node, EdgeRAW) // value transition → load
				}
			}
			j = k + 1
			for j < e && b.chain[j].value == r.value {
				j++
			}
			if j < e {
				if n := b.chain[j].node; n >= 0 {
					b.add(r.node, n, EdgeWAR) // load → next value transition
				}
			}
		}
	}
}

// add appends one dependence edge to the flat list.
func (b *builder) add(from, to int32, kind EdgeKind) {
	if from == to {
		return
	}
	b.edges = append(b.edges, edge{from, to})
	if b.onEdge != nil {
		b.onEdge(from, to, kind)
	}
}

// writerTable finds a writer's entry without a map. MakeWriter packs
// (proc, store sequence), and a proc's writers carry consecutive
// sequence numbers, so one dense range per proc, indexed by sequence,
// holds every writer in the log. DMA writers get the range after the
// processors'.
type writerTable struct {
	ranges  []seqRange
	entries []writerEntry
}

// seqRange is one proc's writers: sequence numbers lo onward, at
// entries[off:off+n].
type seqRange struct {
	lo     uint64
	off, n int32
}

// writerEntry is one writer's chain slot (its last version in the
// chain table) and its store's node; -1 when it has none.
type writerEntry struct {
	slot, node int32
}

// index sizes the table to the log's writers.
func (t *writerTable) index(log Log) {
	procs := 0
	for _, c := range log.chunks {
		for _, v := range c {
			if p := v.W.Proc(); p != DMAProc && p >= procs {
				procs = p + 1
			}
		}
	}
	t.ranges = make([]seqRange, procs+1)
	hi := make([]uint64, procs+1)
	for r := range t.ranges {
		t.ranges[r].lo = math.MaxUint64
	}
	for _, c := range log.chunks {
		for _, v := range c {
			if r := t.rangeOf(v.W); r >= 0 {
				t.ranges[r].lo = min(t.ranges[r].lo, v.W.StoreSeq())
				hi[r] = max(hi[r], v.W.StoreSeq())
			}
		}
	}
	n := int32(0)
	for r := range t.ranges {
		if rg := &t.ranges[r]; rg.lo <= hi[r] {
			rg.off, rg.n = n, int32(hi[r]-rg.lo)+1
			n += rg.n
		}
	}
	t.entries = make([]writerEntry, n)
	for i := range t.entries {
		t.entries[i] = writerEntry{slot: -1, node: -1}
	}
}

// rangeOf returns the index of w's proc range, or -1.
func (t *writerTable) rangeOf(w Writer) int {
	switch p := w.Proc(); {
	case p == DMAProc:
		return len(t.ranges) - 1
	case p >= 0 && p < len(t.ranges)-1:
		return p
	}
	return -1
}

// find returns w's entry, or nil for a writer outside the log's ranges.
func (t *writerTable) find(w Writer) *writerEntry {
	r := t.rangeOf(w)
	if r < 0 {
		return nil
	}
	seq, rg := w.StoreSeq(), t.ranges[r]
	if seq < rg.lo || seq-rg.lo >= uint64(rg.n) {
		return nil
	}
	return &t.entries[rg.off+int32(seq-rg.lo)]
}

// forEach calls fn with every op's record, in place, and its node, in
// node order.
func (g *Graph) forEach(fn func(node int32, r *record)) {
	for p, s := range g.procs {
		node := g.base[p]
		for _, c := range s.recs.chunks {
			for i := range c {
				fn(node, &c[i])
				node++
			}
		}
	}
}

// csr builds the CSR adjacency from program order and the dependence
// edges, in that insertion order: count per source, prefix-sum, fill.
// The fill visits each node's successors in insertion order, so its
// adjacency keeps that order.
func (g *Graph) csr(deps []edge) {
	nodes := g.Nodes()
	g.off = make([]int32, nodes+1)
	for p := range g.procs {
		for n := g.base[p]; n+1 < g.base[p+1]; n++ {
			g.off[n+1]++
		}
	}
	for _, e := range deps {
		g.off[e.from+1]++
	}
	for n := 1; n <= nodes; n++ {
		g.off[n] += g.off[n-1]
	}
	g.adj = make([]int32, g.off[nodes])
	for p := range g.procs {
		for n := g.base[p]; n+1 < g.base[p+1]; n++ {
			g.adj[g.off[n]] = n + 1
			g.off[n]++
		}
	}
	for _, e := range deps {
		g.adj[g.off[e.from]] = e.to
		g.off[e.from]++
	}
	unshift(g.off)
	g.EdgeCount = len(g.adj)
}

// unshift restores a counting sort's bucket offsets after the fill:
// filling advanced each off[k] to the end of bucket k, which is where
// bucket k+1 starts.
func unshift(off []int32) {
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}

// frame is one DFS stack entry: a gray node and the adj index of its
// next successor to visit.
type frame struct{ node, next int32 }

// cycle runs the depth-first search FindCycle and FindCyclePath share.
// On the first edge to a gray node it returns the stack and that node;
// on an acyclic graph it returns -1.
func (g *Graph) cycle() ([]frame, int32) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	nodes := len(g.off) - 1
	color := make([]byte, nodes)
	var stack []frame
	for start := int32(0); int(start) < nodes; start++ {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{start, g.off[start]})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < g.off[f.node+1] {
				to := g.adj[f.next]
				f.next++
				switch color[to] {
				case gray:
					return stack, to
				case white:
					color[to] = gray
					stack = append(stack, frame{to, g.off[to]})
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil, -1
}

// FindCycle reports whether the graph has a cycle, returning one node
// on it for diagnostics.
func (g *Graph) FindCycle() (Op, bool) {
	if _, to := g.cycle(); to >= 0 {
		return g.At(to), true
	}
	return Op{}, false
}

// FindCyclePath returns the operations on one cycle (in order), or nil
// when the graph is acyclic. The cycle starts at the op FindCycle
// reports.
func (g *Graph) FindCyclePath() []Op {
	stack, to := g.cycle()
	if to < 0 {
		return nil
	}
	i := 0
	for stack[i].node != to {
		i++
	}
	cyc := make([]Op, 0, len(stack)-i)
	for _, f := range stack[i:] {
		cyc = append(cyc, g.At(f.node))
	}
	return cyc
}

// Nodes returns the number of operations in the graph.
func (g *Graph) Nodes() int { return int(g.base[len(g.procs)]) }

// At returns the operation at the given node index (the index space
// BuildWith's edge observer reports).
func (g *Graph) At(i int32) Op {
	p := sort.Search(len(g.procs), func(p int) bool { return g.base[p+1] > i })
	return g.procs[p].At(int(i - g.base[p]))
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("constraint graph: %d nodes, %d edges", g.Nodes(), g.EdgeCount)
}

// BuildPerLocation constructs one constraint graph per memory location,
// with program order restricted to same-address operations. An acyclic
// result verifies cache coherence (per-location sequential
// consistency) — the guarantee the paper's *insulated* and *hybrid*
// load queues provide on weakly-ordered machines (§2.1: "an insulated
// load buffer ... order[s] those instructions that read the same
// address"), as opposed to the full sequential consistency the
// snooping queue and the composed replay filters enforce. onEdge is
// BuildWith's edge observer.
//
// Each processor's stream splits into one stream per address, in the
// order of the address's first access, with Index renumbered within
// it; the split streams are numbered processor by processor.
func BuildPerLocation(procs []Stream, log Log, background func(addr uint64) uint64, onEdge func(from, to int32, kind EdgeKind)) *Graph {
	total := 0
	for _, s := range procs {
		total += s.Len()
	}
	// access is one op of the processor being split; group is one
	// address's accesses, at accesses[lo:hi], first made at position
	// first.
	type access struct {
		addr uint64
		pos  int32
	}
	type group struct{ first, lo, hi int32 }
	split := make([]record, 0, total)
	var streams []Stream
	var accesses []access
	var groups []group
	for _, s := range procs {
		accesses = accesses[:0]
		for _, c := range s.recs.chunks {
			for i := range c {
				accesses = append(accesses, access{c[i].addr(), int32(len(accesses))})
			}
		}
		slices.SortFunc(accesses, func(x, y access) int {
			if c := cmp.Compare(x.addr, y.addr); c != 0 {
				return c
			}
			return cmp.Compare(x.pos, y.pos)
		})
		groups = groups[:0]
		for lo := 0; lo < len(accesses); {
			hi := lo + 1
			for hi < len(accesses) && accesses[hi].addr == accesses[lo].addr {
				hi++
			}
			groups = append(groups, group{accesses[lo].pos, int32(lo), int32(hi)})
			lo = hi
		}
		slices.SortFunc(groups, func(x, y group) int { return cmp.Compare(x.first, y.first) })
		for _, gr := range groups {
			lo := len(split)
			for _, a := range accesses[gr.lo:gr.hi] {
				split = append(split, s.recs.At(int(a.pos)))
			}
			// A split stream is one chunk: a first chunk may hold
			// any number of records.
			one := Stream{proc: s.proc}
			one.recs.chunks = [][]record{split[lo:len(split):len(split)]}
			streams = append(streams, one)
		}
	}
	return BuildWith(streams, log, background, onEdge)
}
