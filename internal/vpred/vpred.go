// Package vpred implements a last-value load-value predictor. The
// paper's introduction highlights value prediction as a motivating
// client of value-based replay: Martin et al. (MICRO 2001) showed that
// naive value prediction can violate the memory consistency model in
// multiprocessors, and the paper notes that "our value-based replay
// implementation may be used to detect such errors." The replay
// machine gets value-prediction verification for free: a predicted
// load's value is checked against the commit-time cache value by the
// existing replay/compare stages, so a misprediction — or a
// consistency-violating prediction — squashes exactly like any other
// premature-value error.
package vpred

import "vbmo/internal/reuse"

// LastValue is a PC-indexed last-value predictor with 2-bit confidence.
type LastValue struct {
	entries []lvEntry
	mask    uint64
	// Lookups counts prediction attempts, Predictions confident
	// predictions issued, Correct/Incorrect training outcomes for
	// issued predictions.
	Lookups, Predictions uint64
	Correct, Incorrect   uint64
}

type lvEntry struct {
	pc    uint64
	value uint64
	conf  uint8
}

// ConfidenceThreshold is the confidence needed to use a prediction.
const ConfidenceThreshold = 2

// New creates a predictor with the given entry count (power of two).
func New(entries int) *LastValue {
	p := new(LastValue)
	p.Reset(entries)
	return p
}

// Reset rebuilds p in place as New(entries) would build it, reusing its
// table when it fits.
func (p *LastValue) Reset(entries int) {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("vpred: entries must be a positive power of two")
	}
	*p = LastValue{entries: reuse.Zeroed(p.entries, entries), mask: uint64(entries - 1)}
}

func (p *LastValue) slot(pc uint64) *lvEntry {
	return &p.entries[(pc>>2)&p.mask]
}

// Predict returns a confident value prediction for the load at pc.
func (p *LastValue) Predict(pc uint64) (uint64, bool) {
	p.Lookups++
	e := p.slot(pc)
	if e.pc == pc && e.conf >= ConfidenceThreshold {
		p.Predictions++
		return e.value, true
	}
	return 0, false
}

// Train updates the table with the load's true (commit-time) value.
// predicted reports whether a prediction was issued for this instance.
func (p *LastValue) Train(pc, actual uint64, predicted bool) {
	e := p.slot(pc)
	if e.pc != pc {
		*e = lvEntry{pc: pc, value: actual, conf: 0}
		return
	}
	if e.value == actual {
		if e.conf < 3 {
			e.conf++
		}
		if predicted {
			p.Correct++
		}
		return
	}
	if predicted {
		p.Incorrect++
	}
	e.value = actual
	e.conf = 0
}

// Accuracy returns correct/(correct+incorrect) over issued predictions.
func (p *LastValue) Accuracy() float64 {
	total := p.Correct + p.Incorrect
	if total == 0 {
		return 0
	}
	return float64(p.Correct) / float64(total)
}
