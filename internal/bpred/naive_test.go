package bpred

import "testing"

// naive is the reference predictor: one byte per 2-bit counter, filled
// with the counters' initial values, and a BTB that stores each
// branch's target beside its tag. Predictor must behave exactly like it
// on every call.
type naive struct {
	cfg      Config
	bimodal  []uint8
	gshare   []uint8
	selector []uint8
	history  uint64
	histBits uint

	btbTags    []uint64
	btbTargets []uint64
	btbLRU     []uint8
	btbSets    int

	ras    []uint64
	rasTop int

	lookups, mispredicts uint64
}

func newNaive(cfg Config) *naive {
	fill := func(n int, v uint8) []uint8 {
		s := make([]uint8, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	return &naive{
		cfg:        cfg,
		bimodal:    fill(cfg.BimodalEntries, 2),
		gshare:     fill(cfg.GshareEntries, 2),
		selector:   fill(cfg.SelectorEntries, 1),
		histBits:   log2(cfg.GshareEntries),
		btbTags:    make([]uint64, cfg.BTBEntries),
		btbTargets: make([]uint64, cfg.BTBEntries),
		btbLRU:     make([]uint8, cfg.BTBEntries),
		btbSets:    cfg.BTBEntries / cfg.BTBWays,
		ras:        make([]uint64, cfg.RASEntries),
	}
}

func (n *naive) shiftHistory(h uint64, taken bool) uint64 {
	h <<= 1
	if taken {
		h |= 1
	}
	return h & ((1 << n.histBits) - 1)
}

func (n *naive) gshareIndex(pc, hist uint64) int {
	return int(((pc >> 2) ^ hist) & uint64(n.cfg.GshareEntries-1))
}

func (n *naive) predict(pc uint64) (bool, Meta) {
	n.lookups++
	m := Meta{History: n.history}
	m.BimodalTaken = n.bimodal[pcIndex(pc, n.cfg.BimodalEntries)] >= 2
	m.GshareTaken = n.gshare[n.gshareIndex(pc, n.history)] >= 2
	m.UsedGshare = n.selector[pcIndex(pc, n.cfg.SelectorEntries)] >= 2
	taken := m.BimodalTaken
	if m.UsedGshare {
		taken = m.GshareTaken
	}
	n.history = n.shiftHistory(n.history, taken)
	return taken, m
}

func (n *naive) update(pc uint64, taken bool, m Meta) {
	predicted := m.BimodalTaken
	if m.UsedGshare {
		predicted = m.GshareTaken
	}
	if predicted != taken {
		n.mispredicts++
		n.history = n.shiftHistory(m.History, taken)
	}
	bIdx := pcIndex(pc, n.cfg.BimodalEntries)
	gIdx := n.gshareIndex(pc, m.History)
	n.bimodal[bIdx] = bump(n.bimodal[bIdx], taken)
	n.gshare[gIdx] = bump(n.gshare[gIdx], taken)
	if m.BimodalTaken != m.GshareTaken {
		sIdx := pcIndex(pc, n.cfg.SelectorEntries)
		n.selector[sIdx] = bump(n.selector[sIdx], m.GshareTaken == taken)
	}
}

func (n *naive) predictTarget(pc uint64) (uint64, bool) {
	base := pcIndex(pc, n.btbSets) * n.cfg.BTBWays
	for w := 0; w < n.cfg.BTBWays; w++ {
		if n.btbTags[base+w] == pc|1 {
			n.btbLRU[base+w] = 0
			for o := 0; o < n.cfg.BTBWays; o++ {
				if o != w && n.btbLRU[base+o] < 255 {
					n.btbLRU[base+o]++
				}
			}
			return n.btbTargets[base+w], true
		}
	}
	return 0, false
}

func (n *naive) updateTarget(pc, target uint64) {
	base := pcIndex(pc, n.btbSets) * n.cfg.BTBWays
	victim := 0
	for w := 0; w < n.cfg.BTBWays; w++ {
		if n.btbTags[base+w] == pc|1 {
			victim = w
			break
		}
		if n.btbLRU[base+w] > n.btbLRU[base+victim] {
			victim = w
		}
	}
	n.btbTags[base+victim] = pc | 1
	n.btbTargets[base+victim] = target
	n.btbLRU[base+victim] = 0
	for o := 0; o < n.cfg.BTBWays; o++ {
		if o != victim && n.btbLRU[base+o] < 255 {
			n.btbLRU[base+o]++
		}
	}
}

func (n *naive) push(addr uint64) {
	n.ras[n.rasTop] = addr
	n.rasTop = (n.rasTop + 1) % len(n.ras)
}

func (n *naive) pop() (uint64, bool) {
	n.rasTop = (n.rasTop - 1 + len(n.ras)) % len(n.ras)
	a := n.ras[n.rasTop]
	return a, a != 0
}

// sameTables reports the first table entry where p and n differ: every
// direction counter, decoded, and every BTB tag and LRU age.
func sameTables(p *Predictor, n *naive) (string, int, bool) {
	for i, c := range n.bimodal {
		if p.bimodal.get(i, directionInit) != c {
			return "bimodal", i, false
		}
	}
	for i, c := range n.gshare {
		if p.gshare.get(i, directionInit) != c {
			return "gshare", i, false
		}
	}
	for i, c := range n.selector {
		if p.selector.get(i, selectorInit) != c {
			return "selector", i, false
		}
	}
	for i := range n.btbTags {
		if p.btbTags[i] != n.btbTags[i] || p.btbLRU[i] != n.btbLRU[i] {
			return "btb", i, false
		}
	}
	return "", 0, true
}

// TestPredictorMatchesNaive drives Predictor and the naive reference
// with one seeded stream of Predict, Update, BTB lookup and install,
// Push, Pop, SetHistory and Reset calls, on the Table 3 configuration
// and on the litmus machine's 512-entry direction tables and 256-entry
// BTB. After every call it compares the call's results (direction,
// Meta, BTB hit, popped return address), the history and the
// Lookups/Mispredicts counts; every 1,000 calls and at the end, every
// counter and BTB entry. Updates train in-flight predictions out of
// order, as resolution does, and Resets alternate between the two
// configurations so a reused table must come back as a fresh one.
func TestPredictorMatchesNaive(t *testing.T) {
	table3 := DefaultConfig()
	litmus := table3
	litmus.BimodalEntries, litmus.GshareEntries, litmus.SelectorEntries = 512, 512, 512
	litmus.BTBEntries = 256
	for _, cfgs := range [][2]Config{{table3, litmus}, {litmus, table3}} {
		cfg := cfgs[0]
		p, n := New(cfg), newNaive(cfg)
		type inflight struct {
			pc uint64
			m  Meta
		}
		var pending []inflight
		x := uint64(cfg.BTBEntries)
		resets, mispredicts, evictions := 0, uint64(0), 0
		for step := 0; step < 120000; step++ {
			x = x*6364136223846793005 + 1442695040888963407
			// Half the calls hit 64 branches that share one BTB set; the
			// rest spread over four times the BTB's entries.
			pc := (x >> 40) % 64 * 4 * uint64(n.btbSets)
			if x>>39&1 == 0 {
				pc = (x >> 30) % uint64(4*cfg.BTBEntries) * 4
			}
			var got, want any
			switch op := x >> 58; {
			case op < 18:
				taken, m := p.Predict(pc)
				ntaken, nm := n.predict(pc)
				got, want = [2]any{taken, m}, [2]any{ntaken, nm}
				if len(pending) == 64 {
					pending = pending[1:]
				}
				pending = append(pending, inflight{pc, nm})
			case op < 34:
				if len(pending) == 0 {
					continue
				}
				i := int(x>>20) % len(pending)
				f := pending[i]
				pending = append(pending[:i], pending[i+1:]...)
				// Each branch leans one way, so counters saturate at both
				// ends; one outcome in eight goes against the lean.
				taken := (f.pc>>2^f.pc>>9)&1 == 1
				if x>>10&7 == 0 {
					taken = !taken
				}
				p.Update(f.pc, taken, f.m)
				n.update(f.pc, taken, f.m)
			case op < 42:
				_, nhit := n.predictTarget(pc)
				got, want = p.BTBLookup(pc), nhit
			case op < 50:
				base := pcIndex(pc, n.btbSets) * cfg.BTBWays
				if n.btbTags[base] != 0 && n.btbTags[base+cfg.BTBWays-1] != 0 {
					evictions++
				}
				p.BTBInstall(pc)
				n.updateTarget(pc, pc+(x>>20)%64*4)
			case op < 54:
				p.Push(pc + 4)
				n.push(pc + 4)
			case op < 58:
				a, ok := p.Pop()
				na, nok := n.pop()
				got, want = [2]any{a, ok}, [2]any{na, nok}
			case op < 62:
				h := x >> 7
				if len(pending) > 0 && x&1 == 0 {
					h = pending[int(x>>20)%len(pending)].m.History
				}
				p.SetHistory(h)
				n.history = h
			default:
				if step%64 != 0 {
					continue
				}
				if x>>20&1 == 0 {
					cfg = cfgs[0]
				} else {
					cfg = cfgs[1]
				}
				mispredicts += n.mispredicts
				p.Reset(cfg)
				n, pending = newNaive(cfg), pending[:0]
				resets++
			}
			if got != want || p.History() != n.history || p.Lookups != n.lookups || p.Mispredicts != n.mispredicts {
				t.Fatalf("step %d, pc %#x: got %v, want %v; history %#x/%#x, lookups %d/%d, mispredicts %d/%d",
					step, pc, got, want, p.History(), n.history, p.Lookups, n.lookups, p.Mispredicts, n.mispredicts)
			}
			if step%1000 == 999 {
				if name, i, ok := sameTables(p, n); !ok {
					t.Fatalf("step %d: %s entry %d differs from the reference", step, name, i)
				}
			}
		}
		if name, i, ok := sameTables(p, n); !ok {
			t.Fatalf("end: %s entry %d differs from the reference", name, i)
		}
		t.Logf("start %d entries: %d resets, %d mispredicts, %d installs into full sets",
			cfgs[0].BimodalEntries, resets, mispredicts+n.mispredicts, evictions)
		if resets < 10 || evictions < 1000 {
			t.Errorf("the stream reset %d times and installed into full sets %d times, want more", resets, evictions)
		}
	}
}
