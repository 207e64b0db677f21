// Package bpred implements the front-end branch prediction hardware from
// the paper's Table 3 machine configuration: a combined bimodal (16k
// entry) / gshare (16k entry) direction predictor with a 16k-entry
// selector, an 8k-entry 4-way BTB, and a 64-entry return address stack.
package bpred

import (
	"vbmo/internal/isa"
	"vbmo/internal/reuse"
)

// Config sizes the predictor structures. All table sizes must be powers
// of two.
type Config struct {
	BimodalEntries  int // PC-indexed 2-bit counters
	GshareEntries   int // history-xor-PC indexed 2-bit counters
	SelectorEntries int // chooser between bimodal and gshare
	BTBEntries      int // total BTB entries
	BTBWays         int
	RASEntries      int
}

// DefaultConfig returns the Table 3 configuration.
func DefaultConfig() Config {
	return Config{
		BimodalEntries:  16 * 1024,
		GshareEntries:   16 * 1024,
		SelectorEntries: 16 * 1024,
		BTBEntries:      8 * 1024,
		BTBWays:         4,
		RASEntries:      64,
	}
}

// Meta carries per-prediction state from Predict to Update so the
// predictor can train its component tables and repair global history
// after a misprediction.
type Meta struct {
	History      uint64 // global history before this prediction
	BimodalTaken bool
	GshareTaken  bool
	UsedGshare   bool
}

// Predictor is the combined direction predictor plus BTB and RAS. The
// zero value is not usable; call New or Reset.
type Predictor struct {
	cfg      Config
	bimodal  []uint8 // 2-bit saturating counters
	gshare   []uint8
	selector []uint8 // 2-bit: >=2 means "use gshare"
	history  uint64  // speculative global history, newest outcome in bit 0
	histBits uint

	btbTags    []uint64
	btbTargets []uint64
	btbLRU     []uint8
	btbSets    int

	ras    []uint64
	rasTop int

	// Lookups and Mispredicts count conditional-branch direction
	// predictions and wrong ones.
	Lookups, Mispredicts uint64
}

func log2(n int) uint {
	var b uint
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// New builds a predictor with the given configuration.
func New(cfg Config) *Predictor {
	p := new(Predictor)
	p.Reset(cfg)
	return p
}

// Reset rebuilds p in place as New(cfg) would build it, reusing its
// tables when they fit.
func (p *Predictor) Reset(cfg Config) {
	// Direction counters start weakly taken: loop-closing backward
	// branches dominate, so this warms up quickly. The selector starts
	// weakly preferring bimodal.
	*p = Predictor{
		cfg:        cfg,
		bimodal:    reuse.Filled(p.bimodal, cfg.BimodalEntries, 2),
		gshare:     reuse.Filled(p.gshare, cfg.GshareEntries, 2),
		selector:   reuse.Filled(p.selector, cfg.SelectorEntries, 1),
		histBits:   log2(cfg.GshareEntries),
		btbTags:    reuse.Zeroed(p.btbTags, cfg.BTBEntries),
		btbTargets: reuse.Zeroed(p.btbTargets, cfg.BTBEntries),
		btbLRU:     reuse.Zeroed(p.btbLRU, cfg.BTBEntries),
		btbSets:    cfg.BTBEntries / cfg.BTBWays,
		ras:        reuse.Zeroed(p.ras, cfg.RASEntries),
	}
}

func pcIndex(pc uint64, size int) int {
	return int((pc >> 2) & uint64(size-1))
}

// Predict returns the predicted direction for the conditional branch at
// pc and the metadata needed to train/repair on resolution. The global
// history is speculatively updated with the prediction.
func (p *Predictor) Predict(pc uint64) (bool, Meta) {
	p.Lookups++
	m := Meta{History: p.history}
	bi := p.bimodal[pcIndex(pc, p.cfg.BimodalEntries)]
	gi := p.gshare[p.gshareIndex(pc, p.history)]
	sel := p.selector[pcIndex(pc, p.cfg.SelectorEntries)]
	m.BimodalTaken = bi >= 2
	m.GshareTaken = gi >= 2
	m.UsedGshare = sel >= 2
	taken := m.BimodalTaken
	if m.UsedGshare {
		taken = m.GshareTaken
	}
	p.history = p.shiftHistory(p.history, taken)
	return taken, m
}

func (p *Predictor) gshareIndex(pc, hist uint64) int {
	return int(((pc >> 2) ^ hist) & uint64(p.cfg.GshareEntries-1))
}

func (p *Predictor) shiftHistory(h uint64, taken bool) uint64 {
	h <<= 1
	if taken {
		h |= 1
	}
	return h & ((1 << p.histBits) - 1)
}

func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// Update trains the predictor with the actual outcome of the branch at
// pc, using the Meta captured at prediction time. When the prediction
// was wrong it repairs the speculative global history.
func (p *Predictor) Update(pc uint64, taken bool, m Meta) {
	predicted := m.BimodalTaken
	if m.UsedGshare {
		predicted = m.GshareTaken
	}
	if predicted != taken {
		p.Mispredicts++
		// Squash the wrong speculative history and re-insert truth.
		p.history = p.shiftHistory(m.History, taken)
	}
	bIdx := pcIndex(pc, p.cfg.BimodalEntries)
	gIdx := p.gshareIndex(pc, m.History)
	p.bimodal[bIdx] = bump(p.bimodal[bIdx], taken)
	p.gshare[gIdx] = bump(p.gshare[gIdx], taken)
	// Selector trains toward whichever component was right, when they
	// disagree.
	if m.BimodalTaken != m.GshareTaken {
		sIdx := pcIndex(pc, p.cfg.SelectorEntries)
		p.selector[sIdx] = bump(p.selector[sIdx], m.GshareTaken == taken)
	}
}

// PredictTarget looks up the BTB for the branch at pc.
func (p *Predictor) PredictTarget(pc uint64) (uint64, bool) {
	set := pcIndex(pc, p.btbSets)
	base := set * p.cfg.BTBWays
	for w := 0; w < p.cfg.BTBWays; w++ {
		if p.btbTags[base+w] == pc|1 {
			p.btbLRU[base+w] = 0
			for o := 0; o < p.cfg.BTBWays; o++ {
				if o != w && p.btbLRU[base+o] < 255 {
					p.btbLRU[base+o]++
				}
			}
			return p.btbTargets[base+w], true
		}
	}
	return 0, false
}

// UpdateTarget installs or refreshes the BTB entry for pc.
func (p *Predictor) UpdateTarget(pc, target uint64) {
	set := pcIndex(pc, p.btbSets)
	base := set * p.cfg.BTBWays
	victim := 0
	for w := 0; w < p.cfg.BTBWays; w++ {
		if p.btbTags[base+w] == pc|1 {
			victim = w
			break
		}
		if p.btbLRU[base+w] > p.btbLRU[base+victim] {
			victim = w
		}
	}
	p.btbTags[base+victim] = pc | 1
	p.btbTargets[base+victim] = target
	p.btbLRU[base+victim] = 0
	for o := 0; o < p.cfg.BTBWays; o++ {
		if o != victim && p.btbLRU[base+o] < 255 {
			p.btbLRU[base+o]++
		}
	}
}

// Push pushes a return address onto the RAS (overwriting the oldest
// entry when full, as hardware does).
func (p *Predictor) Push(addr uint64) {
	p.ras[p.rasTop] = addr
	p.rasTop = (p.rasTop + 1) % len(p.ras)
}

// Pop pops the most recent return address; ok is false when it pops a
// never-written slot (cold stack).
func (p *Predictor) Pop() (uint64, bool) {
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	a := p.ras[p.rasTop]
	return a, a != 0
}

// History returns the current speculative global history (snapshotted
// by the pipeline for squash repair).
func (p *Predictor) History() uint64 { return p.history }

// SetHistory restores the global history to a snapshot (used when a
// non-branch squash discards speculatively-updated history).
func (p *Predictor) SetHistory(h uint64) { p.history = h }

// MispredictRate returns mispredicts/lookups.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}

// PredictInst is a convenience wrapper: unconditional branches are
// always predicted taken and do not consult the direction tables.
func (p *Predictor) PredictInst(in isa.Inst, pc uint64) (bool, Meta) {
	if !in.IsConditional() {
		return true, Meta{}
	}
	return p.Predict(pc)
}
