// Package bpred implements the front-end branch prediction hardware from
// the paper's Table 3 machine configuration: a combined bimodal (16k
// entry) / gshare (16k entry) direction predictor with a 16k-entry
// selector and an 8k-entry 4-way BTB. Table 3 also lists a 64-entry
// return address stack, which is not modelled: the ISA has no call or
// return.
//
// The BTB models hit/miss timing only. It keeps tags and LRU ages and
// no targets: the timing model charges a predicted-taken branch that
// misses one fetch bubble, and takes the target from the program, where
// it depends only on the branch's PC (DESIGN.md §25).
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
}

// DefaultConfig returns the Table 3 configuration.
func DefaultConfig() Config {
	return Config{
		BimodalEntries:  16 * 1024,
		GshareEntries:   16 * 1024,
		SelectorEntries: 16 * 1024,
		BTBEntries:      8 * 1024,
		BTBWays:         4,
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

// Initial counter values: direction counters start weakly taken, since
// loop-closing backward branches dominate and this warms up quickly;
// the selector starts weakly preferring bimodal.
const (
	directionInit = 2
	selectorInit  = 1
)

// counters is a table of 2-bit saturating counters, four to a byte.
// Each counter is stored XORed with its table's initial value, so a
// zeroed table holds that value everywhere and a fresh one is a plain
// make (DESIGN.md §25).
type counters []uint8

// get returns counter i of a table whose initial value is init.
func (t counters) get(i int, init uint8) uint8 {
	return (t[i>>2]>>(uint(i&3)*2) ^ init) & 3
}

// train moves counter i one step toward up, saturating at 0 and 3.
func (t counters) train(i int, init uint8, up bool) {
	sh := uint(i&3) * 2
	c := bump(t.get(i, init), up)
	t[i>>2] = t[i>>2]&^(3<<sh) | (c^init)<<sh
}

// Predictor is the combined direction predictor plus BTB. The zero
// value is not usable; call New or Reset.
type Predictor struct {
	cfg      Config
	bimodal  counters
	gshare   counters
	selector counters // >=2 means "use gshare"
	history  uint64   // speculative global history, newest outcome in bit 0
	histBits uint

	btbTags []uint64 // pc|1 of the branch a way holds, 0 when empty
	btbLRU  []uint8
	btbSets int

	Stats Stats
}

// Stats are the predictor's counters: conditional-branch direction
// predictions and wrong ones.
type Stats struct {
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
	*p = Predictor{
		cfg:      cfg,
		bimodal:  reuse.Zeroed(p.bimodal, counterBytes(cfg.BimodalEntries)),
		gshare:   reuse.Zeroed(p.gshare, counterBytes(cfg.GshareEntries)),
		selector: reuse.Zeroed(p.selector, counterBytes(cfg.SelectorEntries)),
		histBits: log2(cfg.GshareEntries),
		btbTags:  reuse.Zeroed(p.btbTags, cfg.BTBEntries),
		btbLRU:   reuse.Zeroed(p.btbLRU, cfg.BTBEntries),
		btbSets:  cfg.BTBEntries / cfg.BTBWays,
	}
}

// counterBytes is the size of a table of n packed counters.
func counterBytes(n int) int { return (n + 3) / 4 }

func pcIndex(pc uint64, size int) int {
	return int((pc >> 2) & uint64(size-1))
}

// Predict returns the predicted direction for the conditional branch at
// pc and the metadata needed to train/repair on resolution. The global
// history is speculatively updated with the prediction.
func (p *Predictor) Predict(pc uint64) (bool, Meta) {
	p.Stats.Lookups++
	m := Meta{History: p.history}
	m.BimodalTaken = p.bimodal.get(pcIndex(pc, p.cfg.BimodalEntries), directionInit) >= 2
	m.GshareTaken = p.gshare.get(p.gshareIndex(pc, p.history), directionInit) >= 2
	m.UsedGshare = p.selector.get(pcIndex(pc, p.cfg.SelectorEntries), selectorInit) >= 2
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
		p.Stats.Mispredicts++
		// Squash the wrong speculative history and re-insert truth.
		p.history = p.shiftHistory(m.History, taken)
	}
	p.bimodal.train(pcIndex(pc, p.cfg.BimodalEntries), directionInit, taken)
	p.gshare.train(p.gshareIndex(pc, m.History), directionInit, taken)
	// Selector trains toward whichever component was right, when they
	// disagree.
	if m.BimodalTaken != m.GshareTaken {
		p.selector.train(pcIndex(pc, p.cfg.SelectorEntries), selectorInit, m.GshareTaken == taken)
	}
}

// BTBLookup reports whether the BTB holds the branch at pc, and makes a
// hit the most recently used way of its set.
func (p *Predictor) BTBLookup(pc uint64) bool {
	set := pcIndex(pc, p.btbSets)
	base := set * p.cfg.BTBWays
	for w := 0; w < p.cfg.BTBWays; w++ {
		if p.btbTags[base+w] == pc|1 {
			p.touchBTB(base, w)
			return true
		}
	}
	return false
}

// BTBInstall installs or refreshes the BTB entry for the taken branch
// at pc, evicting its set's least recently used way.
func (p *Predictor) BTBInstall(pc uint64) {
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
	p.touchBTB(base, victim)
}

// touchBTB makes way w of the set at base its most recently used: its
// age drops to 0 and every other way ages by one, saturating at 255.
func (p *Predictor) touchBTB(base, w int) {
	p.btbLRU[base+w] = 0
	for o := 0; o < p.cfg.BTBWays; o++ {
		if o != w && p.btbLRU[base+o] < 255 {
			p.btbLRU[base+o]++
		}
	}
}

// History returns the current speculative global history (snapshotted
// by the pipeline for squash repair).
func (p *Predictor) History() uint64 { return p.history }

// SetHistory restores the global history to a snapshot (used when a
// non-branch squash discards speculatively-updated history).
func (p *Predictor) SetHistory(h uint64) { p.history = h }

// PredictInst is a convenience wrapper: unconditional branches are
// always predicted taken and do not consult the direction tables.
func (p *Predictor) PredictInst(in isa.Inst, pc uint64) (bool, Meta) {
	if !in.IsConditional() {
		return true, Meta{}
	}
	return p.Predict(pc)
}
